"""Group contexts, balls, separation, syndeticity and smallness.

Counting oracles are computed in-test (breadth-first search over
generators, closed formulas for lattices) rather than frozen as bare
numbers, so a regression in ball enumeration cannot hide behind a stale
constant.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdyn import groups
from symdyn.groups import (
    DEFAULT_BALL_CAP,
    FINITE_TABLES,
    BallCapExceeded,
    FiniteSubset,
    FreeGroupContext,
    GroupParseError,
    LatticeContext,
    LineContext,
    _reduce_word,
    _spheres,
    ball_cap,
    is_separated,
    is_small,
    maximal_separated,
    parse_group,
    parse_subset,
    separation_conflict,
    set_inv,
    set_mul,
    set_pow,
    symmetric_closure,
    syndeticity_witness,
)


def oracle_ball(ctx, r):
    """Ball oracle: each context's own enumeration, which the sphere walk
    behind ``ctx.ball`` replaced, sorted into the deterministic order."""
    if isinstance(ctx, LatticeContext):
        elems = [
            v for v in itertools.product(range(-r, r + 1), repeat=ctx.rank)
            if sum(abs(x) for x in v) <= r
        ]
    elif isinstance(ctx, FreeGroupContext):
        frontier = [""]
        elems = [""]
        for _ in range(r):
            frontier = [
                w + ch
                for w in frontier
                for ch in ctx._letters
                if not (w and w[-1] != ch and w[-1].lower() == ch.lower())
            ]
            elems += frontier
    else:
        elems = [0] if r == 0 else list(range(ctx.order))
    return sorted(elems, key=ctx.sort_key)


def oracle_spheres(ctx):
    """Word-length spheres ``0, 1, ...``, each enumerated on its own and
    sorted: sphere ``r`` is ``oracle_ball(ctx, r)`` minus
    ``oracle_ball(ctx, r - 1)``.  Ends after the last nonempty sphere of a
    finite group."""
    if isinstance(ctx, LatticeContext):
        def vectors(rank, s):  # integer vectors of l1 norm s
            if rank == 1:
                return [(s,), (-s,)] if s else [(0,)]
            return [(x, *v) for x in range(-s, s + 1) for v in vectors(rank - 1, s - abs(x))]

        for r in itertools.count():
            yield sorted(vectors(ctx.rank, r), key=ctx.sort_key)
    elif isinstance(ctx, FreeGroupContext):
        frontier = [""]
        while True:
            yield sorted(frontier, key=ctx.sort_key)
            frontier = [
                w + ch
                for w in frontier
                for ch in ctx._letters
                if not (w and w[-1] != ch and w[-1].lower() == ch.lower())
            ]
    else:
        yield [0]
        yield sorted(range(1, ctx.order), key=ctx.sort_key)


ORACLE_RADII = {"Z": 12, "Z^2": 7, "Z^3": 4, "F2": 5, "F3": 3}


@pytest.mark.parametrize(
    "desc", [*ORACLE_RADII, *(f"finite:{name}" for name in sorted(FINITE_TABLES))]
)
def test_ball_matches_the_per_context_oracle(desc):
    ctx = parse_group(desc)
    for r in range(ORACLE_RADII.get(desc, 3) + 1):
        want = oracle_ball(ctx, r)
        assert ctx.ball(r).elements == tuple(want)
        assert ctx.ball(r).as_set() == frozenset(want)
    # one word length per sphere, so sorting a sphere needs no sort_key
    for r, sphere in enumerate(_spheres(ctx, ORACLE_RADII.get(desc, 3))):
        assert {ctx.word_length(g) for g in sphere} == {r}


@pytest.mark.parametrize(
    "desc", [*ORACLE_RADII, *(f"finite:{name}" for name in sorted(FINITE_TABLES))]
)
def test_oracle_spheres_chain_into_the_oracle_balls(desc):
    ctx = parse_group(desc)
    radius = ORACLE_RADII.get(desc, 3)
    spheres = list(itertools.islice(oracle_spheres(ctx), radius + 1))
    for r in range(radius + 1):
        assert [g for sphere in spheres[: r + 1] for g in sphere] == oracle_ball(ctx, r)


def bfs_ball(ctx, r):
    """Independent ball oracle: breadth-first closure under generators."""
    gens = [g for g in oracle_ball(ctx, 1) if g != ctx.identity]
    seen = {ctx.identity}
    frontier = [ctx.identity]
    for _ in range(r):
        nxt = []
        for g in frontier:
            for x in gens:
                h = ctx.mul(x, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


@pytest.mark.parametrize("desc", ["Z", "Z^2", "F2", "finite:s3"])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_ball_matches_bfs_oracle(desc, r):
    ctx = parse_group(desc)
    ball = ctx.ball(r)
    assert set(ball.as_set()) == bfs_ball(ctx, r)
    # deterministic order: word length first, canonical form second
    keys = [ctx.sort_key(g) for g in ball]
    assert keys == sorted(keys)


def test_lattice_ball_sizes_closed_form():
    z = parse_group("Z")
    z2 = parse_group("Z^2")
    f2 = parse_group("F2")
    for r in range(5):
        assert len(z.ball(r)) == 2 * r + 1
        assert len(z2.ball(r)) == 2 * r * r + 2 * r + 1
        # free rank 2: 1 + 2*(3^r - 1) elements
        assert len(f2.ball(r)) == 1 + 2 * (3**r - 1)


def test_group_axioms_on_samples():
    rng = random.Random(0)
    for desc in ("Z", "Z^2", "F2", "finite:z6", "finite:s3", "finite:klein"):
        ctx = parse_group(desc)
        elems = list(ctx.ball(2))
        for _ in range(60):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, ctx.identity) == a
            assert ctx.mul(ctx.identity, a) == a
            assert ctx.mul(a, ctx.inv(a)) == ctx.identity


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_lattice_product_and_inverse_match_generator_form(rank, data):
    ctx = LatticeContext(rank)
    vectors = st.tuples(*[st.integers(-10**6, 10**6)] * rank)
    a, b = data.draw(vectors), data.draw(vectors)
    assert ctx.mul(a, b) == tuple(x + y for x, y in zip(a, b))
    assert ctx.inv(a) == tuple(-x for x in a)
    assert type(ctx.mul(a, b)) is tuple and type(ctx.inv(a)) is tuple


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(-10**6, 10**6)), st.tuples(st.integers(-10**6, 10**6)))
def test_line_kernel_matches_the_rank_one_lattice(a, b):
    # the generic lattice on 1-tuples is the oracle for Z's own arithmetic
    z, oracle = parse_group("Z"), LatticeContext(1)
    assert type(z) is LineContext
    assert z.mul(a, b) == oracle.mul(a, b) and type(z.mul(a, b)) is tuple
    assert z.inv(a) == oracle.inv(a) and type(z.inv(a)) is tuple
    assert z.word_length(a) == oracle.word_length(a)
    assert z.sort_key(a) == oracle.sort_key(a)


def test_line_generators_and_balls_match_the_rank_one_lattice():
    z, oracle = parse_group("Z"), LatticeContext(1)
    assert z.generators() == oracle.generators()
    for r in range(ORACLE_RADII["Z"] + 1):
        assert z.ball(r) == oracle.ball(r)


@pytest.mark.parametrize("first, second", [("Z", "Z^1"), ("Z^1", "Z")])
def test_z_and_z1_share_one_line_context_parsed_in_either_order(first, second, monkeypatch):
    monkeypatch.setattr(groups, "_CONTEXT_CACHE", {})
    ctx = parse_group(first)
    assert type(ctx) is LineContext
    assert parse_group(second) is ctx


def test_element_text_and_json_round_trip():
    for desc in ("Z", "Z^2", "F2", "finite:s3"):
        ctx = parse_group(desc)
        for g in ctx.ball(2):
            assert ctx.element_from_text(ctx.element_to_text(g)) == g
            assert ctx.element_from_json(ctx.element_to_json(g)) == g


def test_parse_group_rejects_unknown():
    with pytest.raises(GroupParseError):
        parse_group("Q8")
    with pytest.raises(GroupParseError):
        parse_group("finite:nope")


@pytest.mark.parametrize("text, canonical", [("Z^03", "Z^3"), ("Z^1", "Z"), ("F02", "F2")])
def test_parse_group_shares_one_context_per_group(text, canonical):
    # keyed by the group, not the text, so both share one ball cache
    assert parse_group(text) is parse_group(canonical)


def test_free_group_reduction():
    f2 = parse_group("F2")
    a = f2.element_from_text("a")
    ainv = f2.element_from_text("A")
    assert f2.mul(a, ainv) == f2.identity
    with pytest.raises(GroupParseError):
        f2.element_from_text("aA")  # not reduced


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_free_group_product_cancels_like_a_full_reduction(data):
    f2 = parse_group("F2")
    words = st.lists(st.sampled_from("abAB"), max_size=8).map(lambda w: _reduce_word("".join(w)))
    a = data.draw(words)
    # a prefix of a^-1 forces cancellation at the junction
    b = data.draw(st.one_of(words, st.builds(lambda k, w: _reduce_word(f2.inv(a)[:k] + w),
                                             st.integers(0, 8), words)))
    assert f2.mul(a, b) == _reduce_word(a + b)


def test_finite_tables_are_groups():
    for name in FINITE_TABLES:
        ctx = parse_group(f"finite:{name}")
        n = ctx.order
        # Latin square rows and columns
        for a in range(n):
            assert sorted(ctx.mul(a, b) for b in range(n)) == list(range(n))
            assert sorted(ctx.mul(b, a) for b in range(n)) == list(range(n))


def test_subset_order_and_parse():
    ctx = parse_group("Z")
    s = parse_subset(ctx, "3,-1,0")
    assert s.elements == ((0,), (-1,), (3,))
    assert parse_subset(ctx, "ball:2").elements == ctx.ball(2).elements
    assert len(parse_subset(ctx, "")) == 0


def test_set_algebra():
    ctx = parse_group("Z")
    a = parse_subset(ctx, "0,1")
    assert set_mul(ctx, a, a).elements == ((0,), (1,), (2,))
    assert set_inv(ctx, a).elements == ((0,), (-1,))
    assert set_pow(ctx, a, 0).elements == ((0,),)
    assert len(set_pow(ctx, a, 3)) == 4
    assert symmetric_closure(ctx, parse_subset(ctx, "2")).elements == ((-2,), (2,))


@pytest.mark.parametrize("desc", ["Z", "Z^2", "F2", "finite:s3"])
def test_capped_set_product_is_the_plain_product(desc, monkeypatch):
    ctx = parse_group(desc)
    rng = random.Random(desc)
    elems = list(ctx.ball(2))
    for _ in range(10):
        a = FiniteSubset.of(ctx, rng.sample(elems, rng.randint(1, len(elems))))
        b = FiniteSubset.of(ctx, rng.sample(elems, rng.randint(1, len(elems))))
        plain = FiniteSubset.of(ctx, (ctx.mul(x, y) for x in a for y in b))
        monkeypatch.setenv("SYMDYN_MAX_BALL", str(len(plain)))
        assert set_mul(ctx, a, b) == plain
        if len(plain) > 1:
            monkeypatch.setenv("SYMDYN_MAX_BALL", str(len(plain) - 1))
            with pytest.raises(BallCapExceeded):
                set_mul(ctx, a, b)


def test_separation_brute_force_oracle():
    ctx = parse_group("Z")
    d = ctx.ball(1)
    for s_ints in ([0, 3], [0, 2], [0, -3, 5], [1, 2], []):
        s = [(n,) for n in s_ints]
        translates = [{(n + x,) for x in (-1, 0, 1)} for n in s_ints]
        expect = all(
            translates[i].isdisjoint(translates[j])
            for i in range(len(s))
            for j in range(i + 1, len(s))
        )
        assert is_separated(ctx, d, s) == expect


def test_separation_conflict_names_first_pair():
    ctx = parse_group("Z")
    d = ctx.ball(1)
    conflict = separation_conflict(ctx, d, [(0,), (5,), (6,)])
    assert conflict == ((5,), (6,))


@settings(max_examples=60, deadline=None)
@given(
    d_ints=st.sets(st.integers(-2, 2), min_size=1, max_size=4),
    s_ints=st.sets(st.integers(-12, 12), min_size=0, max_size=6),
    shift=st.integers(-5, 5),
)
def test_separation_is_translation_invariant(d_ints, s_ints, shift):
    ctx = parse_group("Z")
    d = FiniteSubset.of(ctx, [(n,) for n in d_ints])
    s = [(n,) for n in sorted(s_ints)]
    moved = [(n + shift,) for n in sorted(s_ints)]
    assert is_separated(ctx, d, s) == is_separated(ctx, d, moved)


@pytest.mark.parametrize("desc", ["Z", "Z^2", "F2"])
def test_maximal_separated_is_separated_and_maximal(desc):
    ctx = parse_group(desc)
    d = ctx.ball(1)
    region = ctx.ball(3)
    s = maximal_separated(ctx, d, region)
    assert is_separated(ctx, d, s)
    kept = s.as_set()
    for g in region:
        if g not in kept:
            assert not is_separated(ctx, d, list(s) + [g])


def test_greedy_guarantee_region_covered_by_ddinv_translates():
    # Every region point lies in D^{-1} D * S: the structural reason the
    # greedy set is syndetic.
    for desc in ("Z", "Z^2", "F2"):
        ctx = parse_group(desc)
        d = ctx.ball(1)
        region = ctx.ball(3)
        s = maximal_separated(ctx, d, region)
        cover = {
            ctx.mul(k, g)
            for k in set_mul(ctx, set_inv(ctx, d), d)
            for g in s
        }
        assert all(g in cover for g in region)


def test_syndeticity_witness_on_arithmetic_progression():
    ctx = parse_group("Z")
    s = FiniteSubset.of(ctx, [(3 * n,) for n in range(-5, 6)])
    region = FiniteSubset.of(ctx, [(n,) for n in range(-12, 13)])
    res = syndeticity_witness(ctx, s, region, 4)
    assert res.found and res.radius == 1
    sparse = FiniteSubset.of(ctx, [(0,)])
    res2 = syndeticity_witness(ctx, sparse, region, 2)
    assert not res2.found and res2.uncovered is not None


def squares(g):
    n = g[0]
    return n >= 0 and round(n**0.5) ** 2 == n


def evens(g):
    return g[0] % 2 == 0


def test_smallness_squares_vs_evens():
    ctx = parse_group("Z")
    region = FiniteSubset.of(ctx, [(n,) for n in range(0, 201)])
    rep = is_small(ctx, squares, 2, region, 60)
    assert rep.overall == "small-up-to-scale"
    assert all(v.verdict == "small" for v in rep.per_radius)
    rep2 = is_small(ctx, evens, 1, region, 30)
    assert rep2.overall == "not-small"
    # radius 1 blocks always meet the evens: the avoidance set is empty
    assert rep2.per_radius[1].verdict == "not-small"
    assert rep2.per_radius[1].avoidance_count == 0


def test_smallness_avoidance_counts_match_brute_force():
    ctx = parse_group("Z")
    region = FiniteSubset.of(ctx, [(n,) for n in range(0, 101)])
    rep = is_small(ctx, squares, 2, region, 40)
    for v in rep.per_radius:
        r = v.radius
        brute = sum(
            1
            for n in range(0, 101)
            if not any(squares((n + x,)) for x in range(-r, r + 1))
        )
        assert v.avoidance_count == brute


def test_ball_cap_reads_the_environment(monkeypatch):
    monkeypatch.delenv("SYMDYN_MAX_BALL", raising=False)
    assert ball_cap() == DEFAULT_BALL_CAP
    monkeypatch.setenv("SYMDYN_MAX_BALL", "")
    assert ball_cap() == DEFAULT_BALL_CAP
    monkeypatch.setenv("SYMDYN_MAX_BALL", "12")
    assert ball_cap() == 12
    with pytest.raises(BallCapExceeded):
        LatticeContext(2).ball(2)  # 13 elements


@pytest.mark.parametrize("raw", ["lots", "1.5", "0", "-3", " 1_0", "+5", "1\u0660"])
def test_malformed_ball_cap_is_rejected(raw, monkeypatch):
    monkeypatch.setenv("SYMDYN_MAX_BALL", raw)
    with pytest.raises(ValueError) as caught:
        ball_cap()
    assert str(caught.value) == f"SYMDYN_MAX_BALL must be a positive integer, got {raw!r}"
    with pytest.raises(ValueError):
        LatticeContext(2).ball(1)

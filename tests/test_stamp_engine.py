"""The stamp constructions' fast paths against the slow paths they replaced.

The oracles below are the original routines, kept here and nowhere else:
``oracle_elements_in_order`` builds every ball and drops what it has seen,
``oracle_free_dense_point`` restarts its site search from the identity on
every placement, ``oracle_is_small`` recomputes ``interior(region,
ball(rho))`` for every pair (r, rho), and ``oracle_tail_ok`` loops over the
forbidden patterns at every transfer-graph extension.  The library must
agree with them exactly.  ``oracle_mixing_gap`` is the transfer graph's old
path-length scan, which the exact gluing check now reads off its own
bit-matrix powers.
"""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdyn.configurations import (
    FreeDensePoint,
    Stage,
    elements_in_order,
    free_dense_point,
    mapping_configuration,
)
from symdyn.groups import (
    BallCapExceeded,
    FiniteGroupContext,
    FiniteSubset,
    FreeGroupContext,
    LatticeContext,
    RadiusVerdict,
    SmallnessReport,
    interior,
    is_small,
    parse_group,
)
from symdyn.irreducibility import check_irreducible
from symdyn.subshifts import Pattern, SftSpec, TransferGraph, _normalized_forbidden

Z = parse_group("Z")
Z2 = parse_group("Z^2")
F2 = parse_group("F2")


# --- oracles ---------------------------------------------------------------------


def oracle_elements_in_order(ctx):
    seen = set()
    r = 0
    while True:
        fresh = [g for g in ctx.ball(r) if g not in seen]
        if r > 0 and not fresh and isinstance(ctx, FiniteGroupContext):
            return
        yield from fresh
        seen.update(fresh)
        r += 1


def oracle_free_dense_point(ctx, depth):
    assigned = {}
    used = set()
    targets = []
    for g in oracle_elements_in_order(ctx):
        if g != ctx.identity:
            targets.append(g)
        if len(targets) == depth:
            break

    def fresh_site(cells_of):
        for g in oracle_elements_in_order(ctx):
            if all(c not in used for c in cells_of(g)):
                return g
        raise RuntimeError("group exhausted")

    stages = []
    for i in range(1, depth + 1):
        window = ctx.ball(i - 1)
        placements = []
        for values in itertools.product((0, 1), repeat=len(window)):
            site = fresh_site(lambda g: [ctx.mul(x, g) for x in window])
            for x, v in zip(window.elements, values):
                cell = ctx.mul(x, site)
                assigned[cell] = v
                used.add(cell)
            placements.append((values, site))
        gi = targets[i - 1]
        probe = fresh_site(lambda h: [h, ctx.mul(h, gi)])
        assigned[probe] = 0
        assigned[ctx.mul(probe, gi)] = 1
        used.add(probe)
        used.add(ctx.mul(probe, gi))
        stages.append(Stage(window, tuple(placements), probe, gi))
    radius = max((ctx.word_length(c) for c in used), default=0)
    return FreeDensePoint(mapping_configuration(ctx, assigned, 0), tuple(stages), radius), assigned


def oracle_is_small(ctx, member, max_f_radius, region, syndetic_cap):
    verdicts = []
    for r in range(max_f_radius + 1):
        f = ctx.ball(r)
        avoid = [g for g in region if not any(member(ctx.mul(x, g)) for x in f)]
        verdict = None
        covered = set(avoid)
        for rho in range(syndetic_cap + 1):
            if rho > 0:
                for x in ctx.ball(rho):
                    covered.update(ctx.mul(x, g) for g in avoid)
            target = interior(ctx, region, ctx.ball(rho))
            if len(target) == 0:
                verdict = RadiusVerdict(r, "inconclusive", None, None, len(avoid))
                break
            missing = [g for g in target if g not in covered]
            if not missing:
                verdict = RadiusVerdict(r, "small", rho, None, len(avoid))
                break
        if verdict is None:
            target = interior(ctx, region, ctx.ball(syndetic_cap))
            missing = [g for g in target if g not in covered]
            verdict = RadiusVerdict(r, "not-small", None, missing[0] if missing else None,
                                    len(avoid))
        verdicts.append(verdict)
    if any(v.verdict == "not-small" for v in verdicts):
        overall = "not-small"
    elif any(v.verdict == "inconclusive" for v in verdicts):
        overall = "inconclusive"
    else:
        overall = "small-up-to-scale"
    return SmallnessReport(tuple(verdicts), overall)


def oracle_tail_ok(norm, word):
    last = len(word) - 1
    for offs, vals in norm:
        start = last - offs[-1]
        if start < 0:
            continue
        if all(word[start + o] == v for o, v in zip(offs, vals)):
            return False
    return True


def oracle_transfer_graph(spec):
    """States and trimmed edges built with the per-pattern tail check."""
    letters = tuple(sorted(spec.letters()))
    norm = _normalized_forbidden(spec)
    m = max((offs[-1] for offs, _ in norm), default=0)
    words = [()]
    for _ in range(m):
        words = [w + (a,) for w in words for a in letters if oracle_tail_ok(norm, w + (a,))]
    states = sorted(words)
    edges = {
        s: tuple((a, (s + (a,))[1:] if m else s) for a in letters
                 if oracle_tail_ok(norm, s + (a,)))
        for s in states
    }
    return TransferGraph._essentialize(states, edges)


def oracle_mixing_gap(graph, max_gap):
    """Least n <= max_gap with every state reaching every state in exactly
    n steps; None on an empty graph."""
    if not graph.states:
        return None
    everything = set(graph.states)
    reach = {s: {t for _, t in graph.edges[s]} for s in graph.states}
    for n in range(1, max_gap + 1):
        if all(r == everything for r in reach.values()):
            return n
        reach = {s: {u for t in r for _, u in graph.edges[t]} for s, r in reach.items()}
    return None


def _assert_mixing_gap_matches(spec, radius, scale):
    report = check_irreducible(Z, spec, 1, Z.ball(radius), scale)
    max_gap = max(2 * scale + 1, report.min_gap + 1)
    assert report.mixing_gap == oracle_mixing_gap(TransferGraph(spec), max_gap)


def oracle_language(states, edges, length):
    """Every word read along a path through the trimmed graph, sorted."""
    m = len(states[0]) if states else 0
    if length <= m:
        return sorted({s[:length] for s in states})
    out = []

    def rec(state, word, todo):
        if todo == 0:
            out.append(word)
            return
        for a, t in edges[state]:
            rec(t, word + (a,), todo - 1)

    for s in states:
        rec(s, s, length - m)
    return out


# --- element order ----------------------------------------------------------------


@pytest.mark.parametrize("group,n", [("Z", 200), ("Z^2", 400), ("F2", 500), ("Z^3", 300)])
def test_elements_in_order_matches_ball_minus_seen(group, n):
    ctx = parse_group(group)
    got = list(itertools.islice(elements_in_order(ctx), n))
    assert got == list(itertools.islice(oracle_elements_in_order(ctx), n))


@pytest.mark.parametrize("name", ["z2", "z3", "klein", "s3", "z6"])
def test_elements_in_order_stops_on_finite_tables(name):
    ctx = parse_group(f"finite:{name}")
    assert list(elements_in_order(ctx)) == list(oracle_elements_in_order(ctx))
    assert len(list(elements_in_order(ctx))) == ctx.order


def _until_cap(gen):
    out = []
    try:
        for g in gen:
            out.append(g)
    except BallCapExceeded as exc:
        return out, str(exc)
    return out, None  # pragma: no cover - both generators are infinite here


FRESH = {"Z": lambda: LatticeContext(1), "Z^2": lambda: LatticeContext(2),
         "F2": lambda: FreeGroupContext(2)}


@pytest.mark.parametrize("group,cap", [("Z", 1), ("Z", 6), ("Z", 7), ("Z^2", 12),
                                       ("Z^2", 13), ("F2", 17), ("F2", 52)])
def test_elements_in_order_raises_where_the_ball_would(group, cap, monkeypatch):
    monkeypatch.setenv("SYMDYN_MAX_BALL", str(cap))
    # fresh contexts: the oracle must not find balls cached under a larger cap
    got = _until_cap(elements_in_order(FRESH[group]()))
    assert got == _until_cap(oracle_elements_in_order(FRESH[group]()))
    assert len(got[0]) <= cap


# --- staged free point -----------------------------------------------------------


def _assert_same_point(ctx, got, want, assigned):
    assert got.stages == want.stages  # windows, placements, probes, targets
    assert got.support_radius == want.support_radius
    for g in ctx.ball(got.support_radius + 1):
        assert got.config.value(g) == assigned.get(g, 0)


@pytest.mark.parametrize("group,depth", [("Z", 1), ("Z", 2), ("Z", 3), ("Z", 4),
                                         ("Z^2", 1), ("Z^2", 2), ("F2", 1), ("F2", 2)])
def test_free_dense_point_matches_restarting_oracle(group, depth):
    ctx = parse_group(group)
    want, assigned = oracle_free_dense_point(ctx, depth)
    _assert_same_point(ctx, free_dense_point(ctx, depth), want, assigned)


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "z6", "klein", "s3"])
@pytest.mark.parametrize("depth", [1, 2])
def test_free_dense_point_on_finite_tables_matches_oracle(name, depth):
    ctx = parse_group(f"finite:{name}")
    try:
        want, assigned = oracle_free_dense_point(ctx, depth)
    except RuntimeError:
        # too few elements for disjoint stamps: both run out of sites
        with pytest.raises(ValueError, match=f"group finite:{name} .* depth {depth}"):
            free_dense_point(ctx, depth)
        return
    _assert_same_point(ctx, free_dense_point(ctx, depth), want, assigned)


def test_free_dense_point_on_f2_stops_at_the_ball_cap(monkeypatch):
    monkeypatch.setenv("SYMDYN_MAX_BALL", "2000")
    t0 = time.perf_counter()
    with pytest.raises(BallCapExceeded, match=r"\|ball\(7\)\| exceeds SYMDYN_MAX_BALL=2000"):
        free_dense_point(F2, 3)
    assert time.perf_counter() - t0 < 10


# --- smallness -------------------------------------------------------------------

SMALL_GROUPS = {"Z": Z, "Z^2": Z2, "F2": F2, "finite:s3": parse_group("finite:s3")}


@st.composite
def smallness_cases(draw):
    ctx = SMALL_GROUPS[draw(st.sampled_from(sorted(SMALL_GROUPS)))]
    pool = ctx.ball(4 if ctx is Z else 2).elements
    if ctx is Z and draw(st.booleans()):
        lo = draw(st.integers(-12, 0))
        region = FiniteSubset.of(ctx, [(n,) for n in range(lo, lo + draw(st.integers(0, 30)))])
    else:
        region = FiniteSubset.of(ctx, draw(st.lists(st.sampled_from(pool), max_size=40)))
    if draw(st.booleans()):
        period = draw(st.integers(2, 7))
        marks = frozenset(draw(st.lists(st.integers(0, period - 1), max_size=3)))
        key = {Z: lambda g: g[0], Z2: lambda g: g[0] + 3 * g[1], F2: len}.get(ctx, lambda g: g)

        def member(g):
            return key(g) % period in marks
    else:
        hits = frozenset(draw(st.lists(st.sampled_from(ctx.ball(5 if ctx is Z else 3).elements),
                                       max_size=12)))

        def member(g):
            return g in hits
    return ctx, member, draw(st.integers(0, 2)), region, draw(st.integers(0, 6))


@settings(max_examples=200, deadline=None)
@given(smallness_cases())
def test_is_small_matches_per_pair_oracle(case):
    ctx, member, radius, region, cap = case
    assert is_small(ctx, member, radius, region, cap) == oracle_is_small(
        ctx, member, radius, region, cap
    )


def _squares(g):
    return g[0] >= 0 and round(g[0] ** 0.5) ** 2 == g[0]


@pytest.mark.parametrize(
    "member,radius,lo,hi,cap,overall",
    [
        (_squares, 2, 0, 200, 60, "small-up-to-scale"),
        (lambda g: g[0] % 2 == 0, 1, 0, 120, 30, "not-small"),
        (lambda g: g[0] % 5 == 0, 2, 0, 40, 12, "not-small"),
        (lambda g: g[0] != 0, 0, 0, 6, 3, "small-up-to-scale"),  # gap 3, interior {3}
        (lambda g: True, 0, -3, 3, 4, "inconclusive"),  # nothing avoids, interior empties
        (lambda g: True, 1, -3, 3, 3, "not-small"),
    ],
)
def test_is_small_draws_every_verdict_like_the_oracle(member, radius, lo, hi, cap, overall):
    region = FiniteSubset.of(Z, [(n,) for n in range(lo, hi + 1)])
    got = is_small(Z, member, radius, region, cap)
    assert got == oracle_is_small(Z, member, radius, region, cap)
    assert got.overall == overall


def test_is_small_rejects_a_negative_cap_like_the_ball():
    region = FiniteSubset.of(Z, [(0,)])
    with pytest.raises(ValueError, match="ball radius must be >= 0"):
        is_small(Z, _squares, 0, region, -1)
    assert is_small(Z, _squares, -1, region, -1) == oracle_is_small(Z, _squares, -1, region, -1)


# --- transfer graph --------------------------------------------------------------

SIZES = st.sampled_from([(1,), (2,), (3,), (2, 2), (1, 3), (2, 1), (1, 1, 2)])


@st.composite
def z_sft_specs(draw):
    sizes = draw(SIZES)
    letters = SftSpec("Z", sizes, ()).letters()
    forbidden = []
    for _ in range(draw(st.integers(0, 5))):
        # sparse supports: any offsets in a short range, gaps allowed
        offsets = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=3, unique=True))
        forbidden.append(Pattern.of(Z, {(o,): draw(st.sampled_from(letters)) for o in offsets}))
    return SftSpec("Z", sizes, tuple(forbidden), "random")


@settings(max_examples=200, deadline=None)
@given(z_sft_specs(), st.integers(0, 7))
def test_transfer_graph_matches_per_pattern_tail_check(spec, length):
    graph = TransferGraph(spec)
    states, edges = oracle_transfer_graph(spec)
    assert graph.states == states
    assert graph.edges == edges
    assert list(graph.language(length)) == oracle_language(states, edges, length)


@settings(max_examples=100, deadline=None)
@given(z_sft_specs(), st.integers(0, 2), st.integers(1, 3))
def test_exact_gluing_mixing_gap_matches_path_scan(spec, radius, scale):
    _assert_mixing_gap_matches(spec, radius, scale)


@pytest.mark.parametrize(
    "forbidden",
    [
        [{0: 1}],  # a single cell
        [{0: 0}, {0: 1}],  # every letter forbidden: empty graph
        [{0: 1, 3: 1}, {0: 0, 1: 0}],  # a sparse pattern beside a contiguous one
        [{-2: 1, 0: 0, 2: 1}],
    ],
)
def test_transfer_graph_fixed_specs_match_oracle(forbidden):
    spec = SftSpec(
        "Z", (2,), tuple(Pattern.of(Z, {(o,): v for o, v in p.items()}) for p in forbidden), "f"
    )
    graph = TransferGraph(spec)
    states, edges = oracle_transfer_graph(spec)
    assert (graph.states, graph.edges) == (states, edges)
    for length in range(6):
        assert list(graph.language(length)) == oracle_language(states, edges, length)
    _assert_mixing_gap_matches(spec, 1, 2)

"""The compiled local engine against the slow path it replaced.

The oracles below are the original local engine, kept here and nowhere
else: ``_occurrence_conflict`` recomputes every forbidden occurrence
through the group operations at each backtracking node,
``oracle_fill_completions`` enumerates fills with it, the window
enumeration lists every fill of the thickened domain and then projects,
and the gluing scan probes every domain pair afresh.  The library must
agree with them exactly: same patterns in the same order, same
admissibility verdicts and glued patterns (both asked through
``window_fill``), same reports.  The library's scan decides apartness and
independence of each translation class by membership and decides the
classes a forbidden occurrence can join by per-side signatures on the
interface of the two thickened domains (one search per pattern pair where
the interfaces are too wide), so its tests also count the regions it
builds, time a scan with wide interfaces, compare each class's verdict with
``oracle_first_unglued`` (one whole-region search per pattern pair, the
per-class decision it replaced) and pin failing specs whose counterexample
lies off the identity.  The per-pair scan asks ``oracle_are_apart`` from
``test_stamp_engine`` whether two domains are apart.
"""

import gc
import math
import time
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symdyn import irreducibility
from symdyn.groups import (
    FiniteSubset,
    LatticeContext,
    parse_group,
    set_mul,
)
from symdyn.irreducibility import (
    GluingCounterexample,
    GluingError,
    IrreducibilityReport,
    _check_irreducible_local,
    _SideSignatures,
    check_irreducible,
    conf,
    is_admissible,
    level_preimages,
)
from symdyn.subshifts import (
    _PATTERN_SET_CACHE,
    _LocalRegion,
    Pattern,
    SftSpec,
    level_pattern_list,
    local,
    pattern_set,
    project_pattern,
    sorted_patterns,
    window_patterns,
)

from test_stamp_engine import oracle_are_apart

Z2 = parse_group("Z^2")
F2 = parse_group("F2")
GROUPS = {"Z^2": Z2, "F2": F2}
# the gluing scan also runs on Z and on finite groups, abelian or not
GLUING_GROUPS = {
    **GROUPS, **{g: parse_group(g) for g in ("Z", "finite:z3", "finite:s3", "finite:klein")}
}


# --- oracles ---------------------------------------------------------------------


def _occurrence_conflict(ctx, spec, assigned, cell):
    """Did assigning ``cell`` complete a forbidden occurrence?"""
    for p in spec.forbidden:
        for h in p.domain:
            t = ctx.mul(ctx.inv(h), cell)
            ok = True
            for h2, v2 in p.items():
                got = assigned.get(ctx.mul(h2, t))
                if got is None or got != v2:
                    ok = False
                    break
            if ok:
                return True
    return False


def oracle_fill_completions(ctx, spec, domain, clamps, allowed=None):
    letters = tuple(sorted(spec.letters()))
    assigned = dict(clamps)
    for cell in clamps:
        if _occurrence_conflict(ctx, spec, assigned, cell):
            return
    free = [g for g in domain if g not in clamps]

    def rec(i):
        if i == len(free):
            yield dict(assigned)
            return
        cell = free[i]
        lset = None if allowed is None else allowed.get(cell)
        for a in letters:
            if lset is not None and a not in lset:
                continue
            assigned[cell] = a
            if not _occurrence_conflict(ctx, spec, assigned, cell):
                yield from rec(i + 1)
            del assigned[cell]

    yield from rec(0)


def oracle_window_patterns(ctx, spec, f, sem):
    """Enumerate every fill of the thickened domain, then project."""
    thick = set_mul(ctx, ctx.ball(sem.margin), f)
    seen = set()
    for fill in oracle_fill_completions(ctx, spec, thick, {}):
        p = Pattern.of(ctx, {g: fill[g] for g in f})
        if p not in seen:
            seen.add(p)
            yield p


def oracle_check_irreducible_local(ctx, spec, level, d, scale, sem, domain_radii):
    """Probe every apart domain pair with every pattern pair, no memo."""
    pre = level_preimages(spec, level)
    radii = tuple(sorted(set(domain_radii)))
    base = {}
    for rho in radii:
        pats = oracle_window_patterns(ctx, spec, ctx.ball(rho), sem)
        base[rho] = sorted_patterns(
            {project_pattern(ctx, p, level, spec.stack) for p in pats}
        )
    domains = [(rho, c) for rho in radii for c in ctx.ball(scale)]
    pairs = 0
    for i, (r1, c1) in enumerate(domains):
        e1 = set_mul(ctx, ctx.ball(r1), FiniteSubset.of(ctx, [c1]))
        for r2, c2 in domains[i:]:
            e2 = set_mul(ctx, ctx.ball(r2), FiniteSubset.of(ctx, [c2]))
            if not oracle_are_apart(ctx, d, e1, e2):
                continue
            pairs += 1
            region = set_mul(
                ctx, ctx.ball(sem.margin), FiniteSubset.of(ctx, e1.elements + e2.elements)
            )
            for p1 in base[r1]:
                q1 = p1.translate(ctx, ctx.inv(c1))
                for p2 in base[r2]:
                    q2 = p2.translate(ctx, ctx.inv(c2))
                    allowed = {g: pre[v] for g, v in q1.items()}
                    allowed.update({g: pre[v] for g, v in q2.items()})
                    if next(oracle_fill_completions(ctx, spec, region, {}, allowed), None) is None:
                        return _report(sem, level, scale, pairs, GluingCounterexample(q1, q2, None))
    return _report(sem, level, scale, pairs, None)


def oracle_first_unglued(ctx, spec, narrow, margin, base, cls):
    """First pattern pair of class ``(r1, r2, x)`` with no joint fill of the
    whole region, one backtracking search per pair."""
    r1, r2, x = cls
    at1 = ctx.ball(r1).elements
    at2 = [ctx.mul(g, x) for g in ctx.ball(r2)]
    region = _LocalRegion(ctx, spec, set_mul(ctx, margin, FiniteSubset.of(ctx, (*at1, *at2))))
    cells1 = [region.index[g] for g in at1]
    cells2 = [region.index[g] for g in at2]
    free = region.choices()
    vals = [None] * len(region.cells)
    for q1 in base[r1]:
        half = list(free)
        for i, v in zip(cells1, q1.values):
            half[i] = narrow[v]
        for q2 in base[r2]:
            choices = list(half)
            for i, v in zip(cells2, q2.values):
                choices[i] = narrow[v]
            if not region.extends(vals, choices):
                return q1, q2
    return None


def oracle_conf_local(ctx, spec, level, f, alpha1, alpha2, sem):
    """Least joint extension, one fresh fill search per probe; None if none."""
    pre = level_preimages(spec, level)
    merged = {**alpha1.mapping(), **alpha2.mapping()}
    region = set_mul(ctx, ctx.ball(sem.margin), f)
    allowed = {g: pre[v] for g, v in merged.items()}
    if next(oracle_fill_completions(ctx, spec, region, {}, allowed), None) is None:
        return None
    values = dict(merged)
    for cell in f:
        if cell in merged:
            continue
        for v in sorted(pre):
            allowed[cell] = pre[v]
            if next(oracle_fill_completions(ctx, spec, region, {}, allowed), None) is not None:
                values[cell] = v
                break
    return Pattern.of(ctx, values)


def _report(sem, level, scale, pairs, counterexample):
    return IrreducibilityReport(
        holds=counterexample is None,
        level=level,
        scale=scale,
        semantics=sem.describe(),
        method="ball-local",
        pairs_checked=pairs,
        min_gap=None,
        mixing_gap=None,
        unconditional=False,
        counterexample=counterexample,
    )


# --- random presentations ----------------------------------------------------------

# alphabet sizes per level, at most four letters in all
SIZES = st.sampled_from([(1,), (2,), (3,), (4,), (2, 2), (1, 3), (3, 1), (2, 1), (1, 1, 2)])


@st.composite
def sft_specs(draw, max_letters=4, groups=GROUPS, offset=False):
    """Random SFTs with forbidden domains in ``ball(1)``, or, with
    ``offset``, in ``ball(1) * t`` for a drawn ``t`` in ``ball(1)``, so
    that a domain need not contain the identity."""
    group = draw(st.sampled_from(sorted(groups)))
    ctx = groups[group]
    sizes = draw(SIZES.filter(lambda s: _count(s) <= max_letters))
    letters = SftSpec(group, sizes, ()).letters()
    cells = ctx.ball(1).elements
    forbidden = []
    for _ in range(draw(st.integers(0, 3))):
        dom = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3, unique=True))
        if offset:
            t = draw(st.sampled_from(cells))
            dom = [ctx.mul(g, t) for g in dom]
        forbidden.append(
            Pattern.of(ctx, {g: draw(st.sampled_from(letters)) for g in dom})
        )
    return ctx, SftSpec(group, sizes, tuple(forbidden), "random")


def _count(sizes):
    n = 1
    for s in sizes:
        n *= s
    return n


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_window_patterns_match_oracle_in_order(data):
    margin = data.draw(st.integers(0, 1))
    ctx, spec = data.draw(sft_specs(max_letters=2 if margin else 4))
    cells = ctx.ball(1).elements
    f = FiniteSubset.of(
        ctx,
        data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=2 if margin else 5,
                           unique=True)),
    )
    sem = local(margin)
    assert list(window_patterns(ctx, spec, f, sem)) == list(
        oracle_window_patterns(ctx, spec, f, sem)
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_locally_admissible_matches_oracle(data):
    ctx, spec = data.draw(sft_specs())
    letters = spec.letters()
    cells = data.draw(st.lists(st.sampled_from(ctx.ball(2).elements), min_size=1,
                               max_size=6, unique=True))
    p = Pattern.of(ctx, {g: data.draw(st.sampled_from(letters)) for g in cells})
    assigned = p.mapping()
    want = not any(_occurrence_conflict(ctx, spec, assigned, g) for g in p.domain)
    assert is_admissible(ctx, spec, p, local(0)) == want
    thick = set_mul(ctx, ctx.ball(1), p.domain)
    if _count(spec.alphabet_sizes) ** (len(thick) - len(p.domain)) <= 4096:
        exists = next(oracle_fill_completions(ctx, spec, thick, assigned), None) is not None
        assert is_admissible(ctx, spec, p, local(1)) == exists


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_local_gluing_scan_matches_unmemoised_scan(data):
    # at scale 2 most classes are decided by membership alone; radius-1
    # domains stay at scale 1, where the oracle is still quick
    scale = data.draw(st.integers(1, 2))
    radii = (0,) if scale == 2 else data.draw(st.sampled_from([(0,), (0, 1)]))
    ctx, spec = data.draw(
        sft_specs(max_letters=2 if 1 in radii else 3, groups=GLUING_GROUPS, offset=True)
    )
    level = data.draw(st.integers(1, spec.stack))
    # any non-empty part of ball(1): D need not be symmetric or hold e
    d = FiniteSubset.of(
        ctx, data.draw(st.lists(st.sampled_from(ctx.ball(1).elements), min_size=1, unique=True))
    )
    sem = local(data.draw(st.integers(0, 1)))
    with patch.object(irreducibility, "_DOMAIN_RADII", radii):
        got = _check_irreducible_local(ctx, spec, level, d, scale, sem)
    assert got == oracle_check_irreducible_local(ctx, spec, level, d, scale, sem, radii)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_side_signatures_decide_each_class_like_a_whole_region_search(data):
    # every class with disjoint domains is apart for D = {e}; under margin 2
    # the nearest of them have overlapping thickened sides, so the
    # interface holds their intersection
    margin = data.draw(st.integers(0, 2))
    ctx, spec = data.draw(
        sft_specs(max_letters=2 if margin == 2 else 3, groups=GLUING_GROUPS, offset=True)
    )
    level = data.draw(st.integers(1, spec.stack))
    top = 0 if margin == 2 else 1
    r1 = data.draw(st.integers(0, top))
    r2 = data.draw(st.integers(r1, top))
    reach = ctx.ball(r1 + r2 + 2 * margin + 1).elements
    x = data.draw(st.sampled_from(reach))
    assume(ctx.ball(r1).as_set().isdisjoint(ctx.mul(g, x) for g in ctx.ball(r2)))
    m = local(margin)
    narrow = {v: tuple(sorted(s)) for v, s in level_preimages(spec, level).items()}
    base = {r: level_pattern_list(ctx, spec, ctx.ball(r), level, m) for r in {r1, r2}}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(irreducibility, "_FEW_FILLS", math.inf)  # never fall back to pairs
        got = _SideSignatures(ctx, spec, narrow, m, base).first_unglued((r1, r2, x))
    want = oracle_first_unglued(ctx, spec, narrow, ctx.ball(margin), base, (r1, r2, x))
    assert got == want
    # the fallback for wide interfaces decides the same class alone
    assert _SideSignatures(ctx, spec, narrow, m, base)._search_pairs((r1, r2, x)) == want


@pytest.mark.parametrize("margin", [0, 1, 2])
@pytest.mark.parametrize(
    "group,pairs",
    [
        ("Z^2", [(s, v, v) for s in ((1, 0), (0, 1)) for v in (0, 1)]),  # checkerboard
        ("F2", [("a", 0, 0), ("a", 1, 1)]),
        ("finite:s3", [(1, 0, 0), (1, 1, 1)]),
    ],
)
def test_side_signatures_decide_every_nearby_class_of_a_failing_spec(
    monkeypatch, group, pairs, margin
):
    # a two-colouring fixes each cell by its neighbour, so an interface
    # fill that completes no occurrence may still not extend to its side
    monkeypatch.setattr(irreducibility, "_FEW_FILLS", math.inf)  # never fall back to pairs
    ctx, spec = _domino_spec(group, pairs, "domino")
    m = ctx.ball(margin)
    narrow = {v: (v,) for v in (0, 1)}
    radii = (0,) if margin == 2 else (0, 1)
    base = {r: level_pattern_list(ctx, spec, ctx.ball(r), 1, local(margin)) for r in radii}
    sides = _SideSignatures(ctx, spec, narrow, local(margin), base)
    fails = 0
    for r1 in radii:
        for r2 in radii:
            at1 = ctx.ball(r1).as_set()
            for x in ctx.ball(r1 + r2 + 2 * margin + 1):
                if not at1.isdisjoint(ctx.mul(g, x) for g in ctx.ball(r2)):
                    continue
                want = oracle_first_unglued(ctx, spec, narrow, m, base, (r1, r2, x))
                assert sides.first_unglued((r1, r2, x)) == want
                fails += want is not None
    assert fails > 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_local_conf_matches_oracle(data):
    margin = data.draw(st.integers(0, 1))
    ctx, spec = data.draw(sft_specs(max_letters=2 if margin else 4))
    level = data.draw(st.integers(1, spec.stack))
    level_letters = sorted(level_preimages(spec, level))
    f = FiniteSubset.of(
        ctx,
        data.draw(st.lists(st.sampled_from(ctx.ball(1).elements), min_size=2,
                           max_size=2 if margin else 5, unique=True)),
    )
    clamped = data.draw(st.lists(st.sampled_from(f.elements), min_size=2, unique=True))
    split = data.draw(st.integers(1, len(clamped) - 1))
    values = {g: data.draw(st.sampled_from(level_letters)) for g in clamped}
    alpha1 = Pattern.of(ctx, {g: values[g] for g in clamped[:split]})
    alpha2 = Pattern.of(ctx, {g: values[g] for g in clamped[split:]})
    sem = local(margin)
    want = oracle_conf_local(ctx, spec, level, f, alpha1, alpha2, sem)
    if want is None:
        with pytest.raises(GluingError):
            conf(ctx, spec, level, f, alpha1, alpha2, sem)
    else:
        assert conf(ctx, spec, level, f, alpha1, alpha2, sem) == want


def _domino_spec(group, pairs, name):
    ctx = GLUING_GROUPS[group]
    return ctx, SftSpec(
        group, (2,), tuple(Pattern.of(ctx, {ctx.identity: v, g: w}) for g, v, w in pairs), name
    )


@pytest.mark.parametrize(
    "group,pairs,holds",
    [
        ("Z^2", [((1, 0), 1, 1), ((0, 1), 1, 1)], True),  # hard square
        ("Z^2", [(s, v, v) for s in ((1, 0), (0, 1)) for v in (0, 1)], False),  # checkerboard
        ("F2", [("a", 1, 1), ("b", 1, 1)], True),
        ("F2", [("a", 0, 0), ("a", 1, 1)], False),
        # full shifts: no forbidden occurrence joins any class
        ("Z^2", [], True),
        ("F2", [], True),
        ("finite:s3", [], True),
    ],
)
def test_local_gluing_scan_holding_and_failing_specs(group, pairs, holds):
    ctx, spec = _domino_spec(group, pairs, "domino")
    got = check_irreducible(ctx, spec, 1, ctx.ball(1), 2, local(1))
    want = oracle_check_irreducible_local(ctx, spec, 1, ctx.ball(1), 2, local(1), (0, 1))
    assert got == want
    assert got.holds is holds


def test_local_gluing_scan_compiles_a_region_only_for_interacting_classes(monkeypatch):
    built = []

    class CountingRegion(irreducibility._LocalRegion):
        def __init__(self, *args):
            built.append(None)
            super().__init__(*args)

    monkeypatch.setattr(irreducibility, "_LocalRegion", CountingRegion)
    ctx, spec = _domino_spec("Z^2", [((1, 0), 1, 1), ((0, 1), 1, 1)], "hard_square")
    got = check_irreducible(ctx, spec, 1, ctx.ball(1), 3, local(1))
    assert got.holds and got.pairs_checked == 552
    # the unskipped scan compiles one region per apart class, 152 here;
    # skipping the classes no forbidden occurrence can join must leave at
    # most a third of them
    assert 0 < len(built) <= 152 // 3


@pytest.mark.parametrize(
    "group,pairs,scales",
    [
        ("Z^2", [((1, 0), 1, 1), ((0, 1), 1, 1)], (3, 5, 7)),  # hard square
        ("F2", [("a", 1, 1), ("b", 1, 1)], (2, 3, 4)),  # f2_hard
    ],
)
def test_local_gluing_scan_compiles_as_many_regions_at_every_scale(monkeypatch, group, pairs,
                                                                   scales):
    # one region per radius and interface: the interfaces of the classes
    # that interact repeat from scale to scale, so the count stays put
    built = []

    class CountingRegion(irreducibility._LocalRegion):
        def __init__(self, *args):
            built.append(None)
            super().__init__(*args)

    monkeypatch.setattr(irreducibility, "_LocalRegion", CountingRegion)
    ctx, spec = _domino_spec(group, pairs, "domino")
    counts = []
    for scale in scales:
        built.clear()
        assert check_irreducible(ctx, spec, 1, ctx.ball(1), scale, local(1)).holds
        counts.append(len(built))
    assert 0 < counts[0] <= 32 and counts == [counts[0]] * len(scales)


def test_local_gluing_scan_searches_pairs_where_interfaces_are_wide():
    # four full letters under margin 2: the thickened sides overlap and
    # interfaces hold up to seven cells, 4^7 fills per pattern, where one
    # search per pair is cheap
    ctx = Z2
    spec = SftSpec("Z^2", (2, 2), (
        Pattern.of(ctx, {(0, 0): (1, 1), (1, 0): (1, 1)}),
        Pattern.of(ctx, {(0, 0): (0, 1), (0, 1): (1, 0)}),
    ), "stacked")
    start = time.monotonic()
    got = check_irreducible(ctx, spec, 1, ctx.ball(1), 2, local(2))
    elapsed = time.monotonic() - start
    assert got.holds and got.pairs_checked == 68
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.1f}s"


def test_local_gluing_scan_reports_the_same_when_every_class_reads_signatures(monkeypatch):
    # the first level must alternate along both axes; under margin 2 the
    # first apart class has interfaces too wide for signatures and fails
    ctx = Z2
    spec = SftSpec("Z^2", (2, 2), tuple(
        Pattern.of(ctx, {(0, 0): (v, w), s: (v, w2)})
        for s in ((1, 0), (0, 1)) for v in (0, 1) for w in (0, 1) for w2 in (0, 1)
    ), "stacked_checkerboard")
    got = check_irreducible(ctx, spec, 1, ctx.ball(1), 2, local(2))
    assert not got.holds and got.pairs_checked == 1
    monkeypatch.setattr(irreducibility, "_FEW_FILLS", math.inf)
    assert check_irreducible(ctx, spec, 1, ctx.ball(1), 2, local(2)) == got


CHECKER = [{(0, 0): v, s: v} for s in ((1, 0), (0, 1)) for v in (0, 1)]

# (group, forbidden patterns, D, scale, margin, radii), then the pair count
# and first counterexample of the unskipped scan, each off the identity
PINNED_FAILURES = {
    # checkerboard, scale 3: the first apart class has c1 = (-2, 0)
    "z2-checkerboard": (
        ("Z^2", CHECKER, "ball:2", 3, 2, (0,)), 1,
        ([[-2, 0]], [0]), ([[0, -3]], [0]),
    ),
    # an F2 domino along ab, with a radius-1 second domain
    "f2-ab-domino": (
        ("F2", [{"": v, "ab": v} for v in (0, 1)], "ball:1", 2, 1, (0, 1)), 101,
        (["BA"], [0]), (["b", "ab", "Bab", "aab", "bab"], [0, 1, 0, 1, 0]),
    ),
    # ball(1) M K M differs from M K M ball(1) on F2: testing x^-1 for
    # interaction skips the class that fails first here
    "f2-skip-needs-x": (
        ("F2", [{"BB": 1, "ab": 0}], [""], 2, 0, (0, 1)), 81,
        (["B"], [1]), (["b", "bb", "Abb", "abb", "bbb"], [0, 0, 0, 0, 0]),
    ),
    # D = {e, b} is not symmetric: testing x^-1 for apartness miscounts
    "f2-apart-needs-x": (
        ("F2", [{"A": 1, "Ab": 1}, {"A": 1, "BA": 1}], ["", "b"], 1, 1, (0, 1)), 6,
        (["A"], [1]), (["", "B", "AB", "BB", "aB"], [0, 0, 1, 0, 0]),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_FAILURES))
def test_local_gluing_scan_keeps_pinned_counterexamples(name):
    # the failing class is decided in class coordinates; its patterns must
    # come back translated to the absolute cells of the pair that met it
    (group, forbidden, d, scale, margin, radii), pairs, first, second = PINNED_FAILURES[name]
    ctx = GLUING_GROUPS[group]
    spec = SftSpec(group, (2,), tuple(Pattern.of(ctx, f) for f in forbidden), name)
    d = ctx.ball(int(d[5:])) if isinstance(d, str) else FiniteSubset.of(ctx, d)
    with patch.object(irreducibility, "_DOMAIN_RADII", radii):
        got = check_irreducible(ctx, spec, 1, d, scale, local(margin))
    assert not got.holds and got.pairs_checked == pairs
    assert got.counterexample.to_json(ctx) == {
        "first": {"domain": first[0], "values": first[1]},
        "second": {"domain": second[0], "values": second[1]},
        "gap": None,
    }
    assert got == oracle_check_irreducible_local(ctx, spec, 1, d, scale, local(margin), radii)


def test_window_patterns_yield_in_scan_order_on_a_ball():
    ctx, spec = _domino_spec("Z^2", [((1, 0), 1, 1), ((0, 1), 1, 1)], "hard_square")
    want = list(oracle_window_patterns(ctx, spec, ctx.ball(1), local(1)))
    gen = window_patterns(ctx, spec, ctx.ball(1), local(1))
    assert [next(gen) for _ in range(3)] == want[:3]  # consumers may stop early
    assert [*want[:3], *gen] == want


def test_pattern_set_cache_outlives_a_rebuilt_context():
    _, spec = _domino_spec("Z^2", [((1, 0), 1, 1), ((0, 1), 1, 1)], "hard_square")
    ctx = LatticeContext(2)
    first = pattern_set(ctx, spec, ctx.ball(1), local(1))
    size = len(_PATTERN_SET_CACHE)
    del ctx
    gc.collect()
    ctx = LatticeContext(2)
    # keyed by the group descriptor, not by the identity of a dropped object
    assert pattern_set(ctx, spec, ctx.ball(1), local(1)) is first
    assert len(_PATTERN_SET_CACHE) == size

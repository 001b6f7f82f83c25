"""Gluing checks, the deterministic joint extension, and the
maximal-separated-set system.

The exhaustive gluing scan is frozen against a direct oracle that tries
every pair of admissible interval windows at every D-apart placement and
asks the window language whether some word extends both.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdyn.corpus import builtin_spec
from symdyn.groups import FiniteSubset, parse_group
from symdyn.irreducibility import (
    GluingError,
    check_irreducible,
    conf,
    irreducibility_envelope,
    irreducibility_witness_search,
    level_pattern_list,
    max_separated_subshift,
)
from symdyn.subshifts import (
    EXACT,
    Pattern,
    SftSpec,
    sorted_patterns,
    transfer_graph,
)

Z = parse_group("Z")


def gap_shift_spec(lo: int, hi: int) -> SftSpec:
    forb = [
        Pattern.of(Z, {(0,): 1, (k + 1,): 1} | {(i + 1,): 0 for i in range(k)})
        for k in range(lo)
    ]
    forb.append(Pattern.of(Z, {(i,): 0 for i in range(hi + 1)}))
    return SftSpec("Z", (2,), tuple(forb), f"gap[{lo},{hi}]")


def brute_gluable(spec, w1, w2, t):
    """Oracle: some admissible word shows w1 at 0 and w2 at offset t >= 0."""
    tg = transfer_graph(spec)
    length = t + len(w2)
    assert length >= len(w1)
    for w in tg.language(length):
        if w[: len(w1)] == w1 and w[t:] == w2:
            return True
    return False


@pytest.mark.parametrize("name", ["full_shift", "golden_mean"])
def test_check_irreducible_holds_on_mixing_systems(name):
    spec = builtin_spec(name)
    rep = check_irreducible(Z, spec, 1, Z.ball(2), 8)
    assert rep.holds
    assert rep.counterexample is None
    assert rep.pairs_checked > 0


def test_check_irreducible_fails_on_period2_with_counterexample():
    spec = builtin_spec("period2")
    rep = check_irreducible(Z, spec, 1, Z.ball(2), 8)
    assert not rep.holds
    ce = rep.counterexample
    assert ce is not None
    # the recorded pair really cannot be glued
    merged = dict(ce.first.items())
    merged.update(ce.second.items())
    tg = transfer_graph(spec)
    lo = min(g[0] for g in merged)
    hi = max(g[0] for g in merged)
    clamps = {g[0] - lo: (v,) for g, v in merged.items()}
    assert not tg.feasible(hi - lo + 1, clamps)


def test_check_irreducible_matches_pairwise_oracle_on_gap_shift():
    spec = gap_shift_spec(3, 5)
    d = Z.ball(3)
    rep = check_irreducible(Z, spec, 1, d, 10)
    # oracle over interval windows of length 2 at all D-apart offsets
    tg = transfer_graph(spec)
    words = list(tg.language(2))
    min_gap = max(g[0] for g in d) + 1
    oracle_holds = all(
        brute_gluable(spec, w1, w2, t)
        for w1, w2 in itertools.product(words, repeat=2)
        for t in range(len(w1) + min_gap, len(w1) + min_gap + 4)
    )
    assert rep.holds == oracle_holds


def test_witness_search_trail():
    spec = builtin_spec("golden_mean")
    search = irreducibility_witness_search(Z, spec, 1, (0, 1, 2), 8)
    assert search.found
    assert search.trail[-1][1] is True
    p2 = builtin_spec("period2")
    search2 = irreducibility_witness_search(Z, p2, 1, (0, 1, 2), 8)
    assert not search2.found
    assert all(ok is False for _, ok in search2.trail)


def test_conf_produces_least_admissible_extension():
    golden = builtin_spec("golden_mean")
    f = FiniteSubset.of(Z, [(n,) for n in range(5)])
    a = Pattern.of(Z, {(0,): 1})
    b = Pattern.of(Z, {(4,): 1})
    glued = conf(Z, golden, 1, f, a, b)
    assert [glued.value_at((n,)) for n in range(5)] == [1, 0, 0, 0, 1]
    # oracle: the value word really is the lexicographically least
    # admissible completion in the deterministic cell order
    tg = transfer_graph(golden)
    completions = sorted(
        w for w in tg.language(5) if w[0] == 1 and w[4] == 1
    )
    cell_order = [g[0] for g in f]  # 0,1,2,3,4
    least = min(
        completions,
        key=lambda w: tuple(w[c] for c in cell_order),
    )
    assert tuple(glued.value_at((n,)) for n in range(5)) == least


def test_conf_is_deterministic_and_extends_inputs():
    p2 = builtin_spec("period2")
    f = FiniteSubset.of(Z, [(n,) for n in range(0, 7)])
    a = Pattern.of(Z, {(0,): 0, (1,): 1})
    b = Pattern.of(Z, {(6,): 0})
    g1 = conf(Z, p2, 1, f, a, b)
    g2 = conf(Z, p2, 1, f, a, b)
    assert g1 == g2
    for src in (a, b):
        for g, v in src.items():
            assert g1.value_at(g) == v


def test_conf_raises_on_impossible_gluing():
    p2 = builtin_spec("period2")
    f = FiniteSubset.of(Z, [(n,) for n in range(0, 6)])
    with pytest.raises(GluingError):
        conf(Z, p2, 1, f, Pattern.of(Z, {(0,): 0}), Pattern.of(Z, {(5,): 0}))


def test_conf_rejects_cells_outside_domain():
    golden = builtin_spec("golden_mean")
    f = FiniteSubset.of(Z, [(0,), (1,)])
    with pytest.raises(ValueError):
        conf(Z, golden, 1, f, Pattern.of(Z, {(7,): 0}), Pattern.of(Z, {(0,): 0}))


@settings(max_examples=40, deadline=None)
@given(
    left=st.integers(0, 1),
    right=st.integers(0, 1),
    gap=st.integers(2, 6),
)
def test_conf_glues_golden_singletons_when_apart(left, right, gap):
    golden = builtin_spec("golden_mean")
    f = FiniteSubset.of(Z, [(n,) for n in range(gap + 1)])
    glued = conf(
        Z, golden, 1, f,
        Pattern.of(Z, {(0,): left}),
        Pattern.of(Z, {(gap,): right}),
    )
    tg = transfer_graph(golden)
    assert tg.contains(tuple(glued.value_at((n,)) for n in range(gap + 1)))


def test_level_pattern_list_is_sorted_and_projected():
    golden = builtin_spec("golden_mean")
    f = FiniteSubset.of(Z, [(0,), (1,)])
    pats = level_pattern_list(Z, golden, f, 1, EXACT)
    assert pats == sorted_patterns(set(pats))
    assert [p.values for p in pats] == [(0, 0), (0, 1), (1, 0)]


def test_max_separated_subshift_language_oracle():
    d = Z.ball(1)
    spec, witness = max_separated_subshift(Z, d)
    tg = transfer_graph(spec)
    # oracle: a binary word is admissible iff its support is D-separated
    # (gaps of ones >= 3) and no all-zero stretch of length |D^2| occurs
    for w in itertools.product((0, 1), repeat=7):
        ones = [i for i, v in enumerate(w) if v == 1]
        sep = all(b - a >= 3 for a, b in zip(ones, ones[1:]))
        # D^2 = ball(2) spans 5 cells: maximality forbids 5 zeros in a row
        zero_run = max(
            (len(list(grp)) for v, grp in itertools.groupby(w) if v == 0),
            default=0,
        )
        expect = sep and zero_run < 5
        if expect:
            assert tg.contains(w), w
        # words violating separation inside the window are never admissible
        if not sep:
            assert not tg.contains(w), w
    assert witness.elements == Z.ball(3).elements


def test_max_separated_subshift_is_irreducible_at_witness():
    d = Z.ball(1)
    spec, witness = max_separated_subshift(Z, d)
    rep = check_irreducible(Z, spec, 1, witness, 12)
    assert rep.holds


def test_irreducibility_envelope_round_trip():
    from symdyn.certificates import verify_envelope

    golden = builtin_spec("golden_mean")
    env = irreducibility_envelope(Z, golden, 1, Z.ball(2), 8)
    assert env["verdict"] is True
    res = verify_envelope(env)
    assert res.ok, res.detail

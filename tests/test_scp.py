"""Covering witnesses, lifts through block maps, joint realization, and
the two-orbit window check.

The canonical two-element covering set for the alternating system is
frozen here together with a brute-force phase argument showing no
singleton can cover, so the minimal-cardinality claim has an oracle
independent of the search order.
"""

import itertools

import pytest

from symdyn.certificates import verify_envelope
from symdyn.configurations import free_dense_point, periodic_configuration
from symdyn.constructions import ConstructionError, least_periodic_point
from symdyn.corpus import builtin_factor, builtin_spec
from symdyn.groups import FiniteSubset, is_separated, parse_group
from symdyn.scp import (
    coverage_gap,
    disjointness_window_check,
    joint_realize,
    lift_scp_witness,
    scp_witness,
    verify_scp_witness,
)
from symdyn.subshifts import (
    EXACT,
    Pattern,
    SubshiftError,
    pattern_set,
    sorted_patterns,
    window_patterns,
)

Z = parse_group("Z")
FULL = builtin_spec("full_shift")
GOLDEN = builtin_spec("golden_mean")
PERIOD2 = builtin_spec("period2")

ZERO_CYL = Pattern.of(Z, {(0,): 0})


def two_periodic(phase: int):
    return periodic_configuration(
        Z, {(0,): phase % 2, (1,): (phase + 1) % 2}, (2,)
    )


# --- covering witnesses -------------------------------------------------------


def test_scp_witness_canonical_covering_set():
    d = Z.ball(1)
    witness, env = scp_witness(Z, PERIOD2, d, ZERO_CYL)
    assert witness is not None
    assert witness.s.elements == ((0,), (-3,))
    assert env["verdict"] is True
    assert env["evidence"]["size"] == 2
    ok, gap = verify_scp_witness(Z, PERIOD2, d, ZERO_CYL, witness.s)
    assert ok and gap is None


def test_no_singleton_covers_the_alternating_system():
    """Phase argument: a single position sees only one parity."""
    d = Z.ball(1)
    for t in range(-8, 9):
        s = FiniteSubset.of(Z, [(t,)])
        ok, gap = verify_scp_witness(Z, PERIOD2, d, ZERO_CYL, s)
        assert not ok
        assert gap is not None
        # the escaping window is the phase putting 1 at the position,
        # and the recorded gap pins exactly that value
        bad_phase = two_periodic(1 + t)
        assert bad_phase.value((t,)) == 1
        assert gap.value_at((t,)) == 1


def test_minimal_cardinality_against_exhaustive_search():
    d = Z.ball(1)
    witness, _ = scp_witness(Z, PERIOD2, d, ZERO_CYL)
    candidates = list(Z.ball(8))
    smallest = None
    for k in range(1, 4):
        for combo in itertools.combinations(candidates, k):
            if not is_separated(Z, d, combo):
                continue
            ok, _ = verify_scp_witness(
                Z, PERIOD2, d, ZERO_CYL, FiniteSubset.of(Z, combo)
            )
            if ok:
                smallest = k
                break
        if smallest is not None:
            break
    assert smallest == len(witness.s)


def test_alternative_two_element_cover_verifies():
    # {0, 3} also hits both parities and is ball(1)-separated
    s = FiniteSubset.of(Z, [(0,), (3,)])
    ok, gap = verify_scp_witness(Z, PERIOD2, Z.ball(1), ZERO_CYL, s)
    assert ok and gap is None


def test_verify_scp_witness_rejects_same_parity_set():
    s = FiniteSubset.of(Z, [(0,), (-4,)])  # both even: misses one phase
    ok, gap = verify_scp_witness(Z, PERIOD2, Z.ball(1), ZERO_CYL, s)
    assert not ok
    assert gap is not None
    # the gap really escapes: the window matches the cylinder nowhere
    for g in s:
        cells = [Z.mul(h, g) for h in Z.ball(1)]
        assert any(gap.value_at(c) != 0 for c in cells)


def test_coverage_gap_none_iff_covering():
    d = Z.ball(1)
    assert coverage_gap(Z, PERIOD2, ZERO_CYL, [(0,), (-3,)]) is None
    assert coverage_gap(Z, PERIOD2, ZERO_CYL, [(0,), (2,)]) is not None


def test_scp_witness_gate_rejects_windows_missing_the_cylinder():
    # the golden-mean system admits an all-zero window, which never
    # matches the cylinder [0 -> 1]; no finite set can cover
    with pytest.raises(ConstructionError, match="minimality"):
        scp_witness(Z, GOLDEN, Z.ball(1), Pattern.of(Z, {(0,): 1}))


def test_scp_witness_without_gate_reports_failure_honestly():
    witness, env = scp_witness(
        Z, GOLDEN, Z.ball(1), Pattern.of(Z, {(0,): 1}),
        scale=4, max_size=2, require_minimal=False,
    )
    assert witness is None
    assert env["verdict"] is False
    assert env["evidence"]["uncovered"] is not None


def test_scp_witness_rejects_image_presentations():
    factor = builtin_factor("period2_or")
    with pytest.raises(SubshiftError, match="lift"):
        scp_witness(Z, factor, Z.ball(1), Pattern.of(Z, {(0,): 1}))


def test_scp_envelope_round_trip_and_tamper():
    _, env = scp_witness(Z, PERIOD2, Z.ball(1), ZERO_CYL)
    assert verify_envelope(env).ok
    bad = dict(env)
    bad["verdict"] = False
    res = verify_envelope(bad)
    assert not res.ok
    assert "verdict" in res.detail


# --- lifted witnesses ---------------------------------------------------------


def test_lift_scp_witness_through_or_map():
    factor = builtin_factor("period2_or")
    one = Pattern.of(Z, {(0,): 1})
    witness, env = lift_scp_witness(Z, factor, Z.ball(1), one)
    assert witness is not None
    assert witness.s.elements == ((0,),)
    assert env["verdict"] is True
    assert env["evidence"]["source_gap"] is None
    assert verify_envelope(env).ok


def test_lift_source_recheck_oracle():
    # independent version of the lift's second half: push both source
    # phases through the map and check the cylinder directly, then scan
    # the true source windows on the pulled-back cells
    factor = builtin_factor("period2_or")
    bmap = factor.bmap
    u = Pattern.of(Z, {(0,): 1})
    witness, _ = lift_scp_witness(Z, factor, Z.ball(1), u)
    for phase in (0, 1):
        src_point = two_periodic(phase)
        assert any(
            all(
                bmap.apply_window(
                    tuple(
                        src_point.value(Z.mul(x, Z.mul(h, s)))
                        for x in bmap.support
                    )
                )
                == v
                for h, v in u.items()
            )
            for s in witness.s
        )
    cells = FiniteSubset.of(
        Z,
        {
            Z.mul(x, Z.mul(h, s))
            for x in bmap.support
            for h in u.domain
            for s in witness.s
        },
    )
    source_windows = list(window_patterns(Z, factor.source, cells, EXACT))
    assert len(source_windows) == 2  # the two alternating phases
    for w in source_windows:
        assert any(
            bmap.apply_window(
                tuple(w.value_at(Z.mul(x, s)) for x in bmap.support)
            )
            == 1
            for s in witness.s
        )


def test_lift_gate_rejects_image_with_escaping_window():
    factor = builtin_factor("golden_or")
    with pytest.raises(ConstructionError, match="minimality"):
        lift_scp_witness(Z, factor, Z.ball(1), Pattern.of(Z, {(0,): 1}))


# --- joint realization --------------------------------------------------------


def test_joint_realize_all_pairs_on_alternating_system():
    d = FiniteSubset.of(Z, [(0,), (1,)])
    patterns = sorted_patterns(pattern_set(Z, PERIOD2, d, EXACT))
    cylinders = [Pattern.of(Z, {(0,): b}) for b in (0, 1)]
    assert len(patterns) == 2
    z0 = free_dense_point(Z, 4).config
    x0, _ = least_periodic_point(Z, PERIOD2)
    for alpha, u in itertools.product(patterns, cylinders):
        jr, env = joint_realize(Z, PERIOD2, alpha, u, depth=4)
        assert env["verdict"] is True
        assert verify_envelope(env).ok
        # fresh pointwise recheck against independently built points
        for c, v in alpha.items():
            assert z0.value(Z.mul(c, jr.g)) == v
        for c, v in u.items():
            assert x0.value(Z.mul(c, jr.g)) == v
        # and the advertised factorization g = s * h
        assert jr.g == Z.mul(jr.s, jr.h)


def test_joint_realize_needs_finite_type_input():
    factor = builtin_factor("period2_or")
    with pytest.raises(SubshiftError):
        joint_realize(Z, factor, Pattern.of(Z, {(0,): 1}),
                      Pattern.of(Z, {(0,): 1}))


# --- two-orbit window check ---------------------------------------------------


@pytest.mark.parametrize(
    "other,counts",
    [("full_shift", {1: 4, 2: 8, 3: 16}), ("golden_mean", {1: 4, 2: 6, 3: 10})],
)
def test_disjointness_window_check_realizes_all_pairs(other, counts):
    spec_y = builtin_spec(other)
    for length, expected in counts.items():
        f = FiniteSubset.of(Z, [(n,) for n in range(length)])
        env = disjointness_window_check(Z, PERIOD2, spec_y, f, scale=120)
        assert env["verdict"] is True
        assert env["evidence"]["pairs"] == expected
        assert env["evidence"]["realized"] == expected
        assert env["evidence"]["failures"] == []


def test_disjointness_window_check_envelope_round_trip():
    f = FiniteSubset.of(Z, [(0,)])
    env = disjointness_window_check(Z, PERIOD2, FULL, f, scale=120)
    res = verify_envelope(env)
    assert res.ok, res.detail
    bad = dict(env)
    bad["verdict"] = False
    assert not verify_envelope(bad).ok


def test_disjointness_window_check_guards_against_rigid_partner():
    f = FiniteSubset.of(Z, [(0,)])
    with pytest.raises(ConstructionError, match="gluing witness"):
        disjointness_window_check(Z, PERIOD2, PERIOD2, f, scale=120)


# --- envelope tamper sweep ----------------------------------------------------


def test_all_scp_claims_reject_evidence_tampering():
    envs = []
    _, e1 = scp_witness(Z, PERIOD2, Z.ball(1), ZERO_CYL)
    envs.append(e1)
    _, e2 = lift_scp_witness(
        Z, builtin_factor("period2_or"), Z.ball(1), Pattern.of(Z, {(0,): 1})
    )
    envs.append(e2)
    _, e3 = joint_realize(
        Z, PERIOD2, Pattern.of(Z, {(0,): 0}), Pattern.of(Z, {(0,): 1})
    )
    envs.append(e3)
    envs.append(
        disjointness_window_check(
            Z, PERIOD2, FULL, FiniteSubset.of(Z, [(0,)]), scale=120
        )
    )
    for env in envs:
        assert verify_envelope(env).ok, env["claim"]
        bad = dict(env)
        bad["evidence"] = dict(env["evidence"])
        bad["evidence"]["tampered"] = 1
        res = verify_envelope(bad)
        assert not res.ok, env["claim"]

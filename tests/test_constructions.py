"""Products, freeness padding, marker densification, shattering, and the
equivariant variant.

Displaying-ball constants are re-derived inline by brute force: the least
radius whose ball fits the window and carries an admissible pattern whose
slots show every admissible window pattern.  ``oracle_product_forbidden``
is the product's original build, one mirrored loop per factor.
"""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdyn import constructions
from symdyn.certificates import verify_envelope
from symdyn.configurations import Configuration
from symdyn.constructions import (
    ConstructionError,
    SmallnessRejected,
    build_phi,
    canonical_marker_point,
    freeness_envelope,
    gamma_densify,
    gamma_point,
    least_periodic_point,
    pad_free,
    phi_point,
    product_spec,
    shatter_small,
    squares_member,
    verify_phi,
)
from symdyn.corpus import builtin_spec
from symdyn.groups import FiniteSubset, parse_group
from symdyn.irreducibility import level_pattern_list
from symdyn.subshifts import (
    EXACT,
    Pattern,
    SftSpec,
    letter_coords,
    local,
    make_letter,
    pattern_set,
    project_letter,
    transfer_graph,
)

Z = parse_group("Z")
FULL = builtin_spec("full_shift")
GOLDEN = builtin_spec("golden_mean")
PERIOD2 = builtin_spec("period2")


def interval(lo: int, hi: int) -> FiniteSubset:
    return FiniteSubset.of(Z, [(n,) for n in range(lo, hi + 1)])


def brute_display(spec, f, max_r):
    """Oracle for the displaying ball: least radius + least stamp."""
    pats = level_pattern_list(Z, spec, f, 1, EXACT)
    for r in range(max_r + 1):
        v = Z.ball(r)
        if not all(g in v for g in f):
            continue
        slots = [k for k in v if all(Z.mul(x, k) in v for x in f)]
        for cand in level_pattern_list(Z, spec, v, 1, EXACT):
            if all(
                any(
                    all(cand.value_at(Z.mul(x, k)) == p.value_at(x) for x in f)
                    for k in slots
                )
                for p in pats
            ):
                return r, cand
    raise AssertionError("no displaying ball found")


# --- products and padding -------------------------------------------------


def test_product_spec_window_pattern_count_multiplies():
    prod = product_spec(GOLDEN, FULL)
    assert prod.alphabet_sizes == (2, 2)
    assert prod.stack == 2
    f = interval(0, 1)
    pats = pattern_set(Z, prod, f, EXACT)
    assert len(pats) == 3 * 4
    # the level-0 projections are exactly the golden-mean window patterns
    projected = {
        Pattern.of(Z, {g: project_letter(v, 1, prod.stack) for g, v in p.items()})
        for p in pats
    }
    assert projected == pattern_set(Z, GOLDEN, f, EXACT)


def oracle_product_forbidden(spec_a, spec_b):
    """The product's forbidden patterns, built by one loop per factor."""
    forbidden = []
    for p in spec_a.forbidden:
        cells = p.domain.elements
        for fill in itertools.product(spec_b.letters(), repeat=len(cells)):
            forbidden.append(Pattern.of(Z, {
                c: make_letter(letter_coords(p.value_at(c), spec_a.stack)
                               + letter_coords(w, spec_b.stack))
                for c, w in zip(cells, fill)
            }))
    for p in spec_b.forbidden:
        cells = p.domain.elements
        for fill in itertools.product(spec_a.letters(), repeat=len(cells)):
            forbidden.append(Pattern.of(Z, {
                c: make_letter(letter_coords(w, spec_a.stack)
                               + letter_coords(p.value_at(c), spec_b.stack))
                for c, w in zip(cells, fill)
            }))
    return tuple(forbidden)


@st.composite
def stacked_z_specs(draw):
    sizes = draw(st.sampled_from([(2,), (3,), (1, 2), (2, 2), (2, 1, 2)]))
    letters = SftSpec("Z", sizes, ()).letters()
    forbidden = []
    for _ in range(draw(st.integers(0, 2))):
        cells = draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3, unique=True))
        forbidden.append(Pattern.of(Z, {(c,): draw(st.sampled_from(letters)) for c in cells}))
    return SftSpec("Z", sizes, tuple(forbidden), draw(st.sampled_from(["", "s"])))


@settings(max_examples=60, deadline=None)
@given(stacked_z_specs(), stacked_z_specs())
def test_product_spec_forbidden_patterns_match_two_loop_build(spec_a, spec_b):
    prod = product_spec(spec_a, spec_b)
    assert prod.forbidden == oracle_product_forbidden(spec_a, spec_b)
    assert prod.alphabet_sizes == spec_a.alphabet_sizes + spec_b.alphabet_sizes


def test_product_spec_lifts_both_factors_in_order():
    stacked = SftSpec("Z", (2, 2), (Pattern.of(Z, {(0,): (1, 1), (1,): (0, 1)}),), "st")
    prod = product_spec(GOLDEN, stacked)
    assert prod.forbidden == oracle_product_forbidden(GOLDEN, stacked)
    # golden_mean's pattern lifts over 4 x 4 fills first, then the stacked one over 2 x 2
    assert len(prod.forbidden) == 16 + 4
    assert prod.forbidden[0].values == ((1, 0, 0), (1, 0, 0))
    assert prod.forbidden[16].values == ((0, 1, 1), (0, 0, 1))
    assert prod.alphabet_sizes == (2, 2, 2)


def test_product_spec_rejects_mixed_groups():
    from symdyn.subshifts import SubshiftError

    z2spec = SftSpec("Z^2", (2,), (), "flat")
    with pytest.raises(SubshiftError):
        product_spec(GOLDEN, z2spec)


def test_pad_free_preserves_base_level_patterns():
    padded = pad_free(GOLDEN, levels=1)
    assert padded.alphabet_sizes == (2, 2)
    f = interval(0, 2)
    pats = pattern_set(Z, padded, f, EXACT)
    projected = {
        Pattern.of(
            Z, {g: project_letter(v, 1, padded.stack) for g, v in p.items()}
        )
        for p in pats
    }
    assert projected == pattern_set(Z, GOLDEN, f, EXACT)
    # the free level is unconstrained: both letters appear at every cell
    free_values = {
        letter_coords(p.value_at((0,)), padded.stack)[1] for p in pats
    }
    assert free_values == {0, 1}


def test_pad_free_input_validation():
    with pytest.raises(ValueError):
        pad_free(GOLDEN, levels=0)
    with pytest.raises(ValueError):
        pad_free(GOLDEN, alphabet=1)


# --- freeness envelopes ----------------------------------------------------


def test_freeness_envelope_padded_holds_unpadded_fails():
    padded = pad_free(PERIOD2)
    env_ok = freeness_envelope(Z, padded, (2,))
    assert env_ok["verdict"] is True
    assert verify_envelope(env_ok).ok

    env_bad = freeness_envelope(Z, PERIOD2, (2,))
    assert env_bad["verdict"] is False
    assert verify_envelope(env_bad).ok  # the envelope itself replays
    assert env_bad["evidence"]["failed_probe"] is not None


# --- marker densification --------------------------------------------------


def test_build_phi_full_shift_identity_window_constants():
    sys = build_phi(Z, FULL, 1, interval(0, 0))
    assert sys.v_radius == 1
    assert sys.marker_spacing == 11
    assert sys.syndetic_bound == 23
    word = tuple(sys.u.value_at((k,)) for k in range(-1, 2))
    assert word == (0, 0, 1)
    r, stamp = brute_display(FULL, interval(0, 0), 3)
    assert (r, stamp) == (sys.v_radius, sys.u)


def test_build_phi_golden_pair_window_constants():
    f = interval(0, 1)
    sys = build_phi(Z, GOLDEN, 1, f)
    assert sys.v_radius == 2
    assert sys.marker_spacing == 21
    assert sys.syndetic_bound == 45
    word = tuple(sys.u.value_at((k,)) for k in range(-2, 3))
    assert word == (1, 0, 0, 0, 1)
    r, stamp = brute_display(GOLDEN, f, 4)
    assert (r, stamp) == (sys.v_radius, sys.u)
    # the stamp really shows all three admissible pair patterns
    pairs = {word[i : i + 2] for i in range(4)}
    assert pairs == {(1, 0), (0, 0), (0, 1)}


def test_build_phi_off_z_builds_no_marker_system(monkeypatch):
    # the marker system of V^5 = ball(5) on F2 has 118097 forbidden patterns
    # and a witness ball of 57M products; only verify_phi, on Z, reads it
    def refuse(*args):
        raise AssertionError("build_phi built the marker system")

    monkeypatch.setattr(constructions, "max_separated_spec", refuse)
    f2 = parse_group("F2")
    f2_hard = SftSpec("F2", (2,), tuple(
        Pattern.of(f2, {f2.identity: 1, g: 1}) for g in ("a", "b")
    ), "f2_hard")
    start = time.monotonic()
    sys = build_phi(f2, f2_hard, 1, f2.ball(0), witness_scale=2, sem=local(1))
    elapsed = time.monotonic() - start
    assert sys.v_radius == 1
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"


def test_build_phi_rejects_single_pattern_window():
    # period2 on window {0} has both letters, but its OR image would not;
    # a window showing fewer than two patterns is useless for density
    one_letter = SftSpec(
        "Z", (2,), (Pattern.of(Z, {(0,): 1}),), "zeros_only"
    )
    with pytest.raises(ConstructionError):
        build_phi(Z, one_letter, 1, interval(0, 0))


def test_phi_point_stamps_at_markers_and_keeps_far_cells():
    sys = build_phi(Z, FULL, 1, interval(0, 0))
    zp = Configuration(Z, lambda g: 0, "zeros")
    y = canonical_marker_point(sys)
    point = phi_point(sys, zp, y)
    stamp_word = [sys.u.value_at((k,)) for k in range(-1, 2)]
    for marker in (0, sys.marker_spacing, -sys.marker_spacing):
        got = [point.value((marker + k,)) for k in range(-1, 2)]
        assert got == stamp_word
    # midway between markers the base point shows through
    mid = sys.marker_spacing // 2
    assert point.value((mid,)) == 0


def test_phi_point_reports_colliding_markers_at_the_first_shared_cell():
    # V = ball(2), so markers at 0 and 7 share the V^3 = ball(6) cells 1..6;
    # scanning left to right, cell 1 is the first one both cover
    sys = build_phi(Z, FULL, 1, interval(0, 1))
    assert sys.v_radius == 2
    y = Configuration(Z, lambda g: 1 if g[0] in (0, 7) else 0, "too close")
    point = phi_point(sys, Configuration(Z, lambda g: 1, "ones"), y)
    for t in range(-12, 1):  # no cell left of 1 sees two markers
        point.value((t,))
    with pytest.raises(ConstructionError, match=r"^markers collide near 1: the marker "
                       r"set is not V\^5-separated$"):
        point.value((1,))
    with pytest.raises(ConstructionError, match="markers collide near 4:"):
        point.value((4,))
    assert point.value((10,)) == 0


def test_verify_phi_passes_on_full_and_golden():
    for spec, f in ((FULL, interval(0, 0)), (GOLDEN, interval(0, 1))):
        sys = build_phi(Z, spec, 1, f)
        env = verify_phi(sys, scale=max(24, sys.syndetic_bound // 2 + 2),
                         samples=4)
        assert env["verdict"] is True
        assert env["evidence"]["violations"] == []
        assert env["evidence"]["placements_checked"] > 0


def test_verify_phi_rejects_undersized_scan():
    sys = build_phi(Z, FULL, 1, interval(0, 0))
    with pytest.raises(ValueError):
        verify_phi(sys, scale=5)


def test_phi_envelope_round_trip():
    sys = build_phi(Z, FULL, 1, interval(0, 0))
    env = verify_phi(sys, scale=12, samples=2)
    res = verify_envelope(env)
    assert res.ok, res.detail


# --- shattering ------------------------------------------------------------


def region_0_400():
    return [(n,) for n in range(0, 401)]


def test_shatter_squares_matches_choice_exactly():
    squares = [n * n for n in range(21)]
    chosen = [(n,) for n in squares if n % 3 == 0]
    result = shatter_small(Z, "squares", chosen, region_0_400())
    assert result.d_radius == 29
    assert result.x_spacing == 175
    assert result.smallness.overall == "small-up-to-scale"
    chosen_set = set(chosen)
    for n in squares:
        want = 1 if (n,) in chosen_set else 0
        assert result.point.value((n,)) == want, n
    assert verify_envelope(result.certificate).ok


def test_shatter_markers_dodge_the_small_set():
    result = shatter_small(Z, "squares", [(0,), (16,)], region_0_400())
    r5 = 5 * result.sys.v_radius
    markers = [
        n for n in range(-400, 1200) if result.markers.value((n,)) == 1
    ]
    assert markers, "the displaced grid must keep its markers"
    for m in markers:
        for t in range(-r5, r5 + 1):
            assert not squares_member((m + t,)), (m, t)
    gaps = [b - a for a, b in zip(markers, markers[1:])]
    assert all(g > 10 * result.sys.v_radius for g in gaps)
    assert all(abs(g - result.x_spacing) <= result.x_spacing for g in gaps)


def test_shatter_rejects_non_small_set():
    with pytest.raises(SmallnessRejected) as excinfo:
        shatter_small(Z, "evens", [(0,)], region_0_400())
    assert excinfo.value.report.overall == "not-small"


def test_shatter_rejects_choice_outside_set():
    with pytest.raises(ValueError):
        shatter_small(Z, "squares", [(3,)], region_0_400())


def test_shatter_rejects_constrained_base():
    with pytest.raises(ConstructionError):
        shatter_small(Z, "squares", [(0,)], region_0_400(), spec=GOLDEN)


def test_shatter_takes_member_predicates_by_name_only():
    # the certificate records the name, so verify can rebuild only a named set
    with pytest.raises(ConstructionError, match="unknown member predicate"):
        shatter_small(Z, squares_member, [(0,)], region_0_400())


# --- periodic background points ---------------------------------------------


@pytest.mark.parametrize(
    "name,period", [("full_shift", 1), ("golden_mean", 1), ("period2", 2)]
)
def test_least_periodic_point_periods(name, period):
    spec = builtin_spec(name)
    point, p = least_periodic_point(Z, spec)
    assert p == period
    word = tuple(point.value((i,)) for i in range(p))
    # direct admissibility of the repeated word
    tg = transfer_graph(spec)
    assert tg.contains(word * (tg.m + 2))
    # no shorter period works
    for q in range(1, p):
        wq = tuple(point.value((i,)) for i in range(q))
        assert not tg.contains(wq * (tg.m // q + 2))


def test_least_periodic_point_gap_shift():
    forb = [
        Pattern.of(Z, {(0,): 1, (k + 1,): 1} | {(i + 1,): 0 for i in range(k)})
        for k in range(3)
    ]
    forb.append(Pattern.of(Z, {(i,): 0 for i in range(6)}))
    spec = SftSpec("Z", (2,), tuple(forb), "gap[3,5]")
    point, p = least_periodic_point(Z, spec)
    assert p == 4
    word = [point.value((i,)) for i in range(4)]
    assert sum(word) == 1


# --- equivariant densification ----------------------------------------------


def z2_base() -> SftSpec:
    return SftSpec("Z", (2,), (), "z2_letters")


def test_gamma_densify_cycles_stamps_through_the_group():
    gamma = parse_group("finite:z2")
    gsys, env = gamma_densify(
        Z, gamma, z2_base(), interval(0, 0), eps=0.5, scale=40
    )
    assert gsys.phi.v_radius == 1
    assert gsys.phi.marker_spacing == 11
    assert gsys.syndetic_bound == 2 * 11 + 2
    assert env["verdict"] is True
    point = gamma_point(gsys)
    base_word = [gsys.phi.u.value_at((k,)) for k in range(-1, 2)]
    swapped = [gamma.mul(1, v) for v in base_word]
    at0 = [point.value((k,)) for k in range(-1, 2)]
    at1 = [point.value((11 + k,)) for k in range(-1, 2)]
    at2 = [point.value((22 + k,)) for k in range(-1, 2)]
    assert at0 == base_word
    assert at1 == swapped
    assert at2 == base_word  # the cycle has order two


def test_gamma_point_letterwise_translation():
    gamma = parse_group("finite:z2")
    gsys, _ = gamma_densify(
        Z, gamma, z2_base(), interval(0, 0), eps=1.0, scale=30
    )
    p0 = gamma_point(gsys, 0)
    p1 = gamma_point(gsys, 1)
    for n in range(-30, 31):
        assert p1.value((n,)) == gamma.mul(1, p0.value((n,)))
    with pytest.raises(ValueError):
        gamma_point(gsys, 2)


def test_gamma_densify_envelope_round_trip():
    gamma = parse_group("finite:z2")
    _, env = gamma_densify(
        Z, gamma, z2_base(), interval(0, 0), eps=0.5, scale=30
    )
    res = verify_envelope(env)
    assert res.ok, res.detail


def test_gamma_densify_rejects_non_invariant_language():
    gamma = parse_group("finite:z2")
    with pytest.raises(ConstructionError, match="invariant"):
        gamma_densify(Z, gamma, GOLDEN, interval(0, 0), eps=0.5)


def test_gamma_densify_rejects_alphabet_mismatch():
    gamma = parse_group("finite:z3")
    with pytest.raises(ConstructionError):
        gamma_densify(Z, gamma, z2_base(), interval(0, 0), eps=0.5)


def test_gamma_densify_rejects_bad_density():
    gamma = parse_group("finite:z2")
    for eps in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            gamma_densify(Z, gamma, z2_base(), interval(0, 0), eps=eps)

"""Total points: periodic points through finite quotients, indicators,
cylinder backbones and the staged free point whose orbit closure is the
whole binary shift."""

import itertools
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdyn.configurations import (
    Configuration,
    elements_in_order,
    free_dense_point,
    indicator_configuration,
    mapping_configuration,
    minimal_point_in_cylinder,
    periodic_configuration,
)
from symdyn.corpus import builtin_spec
from symdyn.groups import FiniteSubset, parse_group
from symdyn.subshifts import Pattern

Z = parse_group("Z")


def test_periodic_lattice_configuration():
    cfg = periodic_configuration(Z, {(0,): 1, (1,): 0, (2,): 2}, (3,))
    assert [cfg.value((n,)) for n in range(-3, 4)] == [1, 0, 2, 1, 0, 2, 1]


def test_periodic_configuration_reads_the_quotient_table():
    z2 = parse_group("Z^2")
    cfg = periodic_configuration(z2, {(0, 1): 5}, (2, 3), 0)
    assert cfg.value((4, -2)) == 5 and cfg.value((4, -1)) == 0
    s3 = parse_group("finite:s3")
    cfg = periodic_configuration(s3, {2: 1}, default=0)
    assert [cfg.value(g) for g in range(6)] == [0, 0, 1, 0, 0, 0]
    with pytest.raises(ValueError, match="do not fit Z\\^2"):
        periodic_configuration(z2, {(0,): 1}, (2,))
    f2 = parse_group("F2")
    with pytest.raises(ValueError, match="lattice or finite group"):
        periodic_configuration(f2, {"": 1})


def test_indicator_and_mapping_configurations():
    ind = indicator_configuration(Z, lambda g: g[0] in (0, 2))
    assert [ind.value((n,)) for n in range(4)] == [1, 0, 1, 0]
    mp = mapping_configuration(Z, {(1,): 7}, 0)
    assert mp.value((1,)) == 7 and mp.value((5,)) == 0


def test_shift_follows_right_action():
    cfg = periodic_configuration(Z, {(i,): i for i in range(4)}, (4,))
    g = (1,)
    moved = cfg.shift_by(g)
    # (g.z)(h) = z(h g)
    for n in range(-4, 5):
        assert moved.value((n,)) == cfg.value((n + 1,))


def test_restrict_gives_pattern():
    cfg = periodic_configuration(Z, {(0,): 0, (1,): 1}, (2,))
    p = cfg.window(FiniteSubset.of(Z, [(0,), (1,), (2,)]))
    assert p.values == (0, 1, 0)


def test_elements_in_order_is_deterministic_ball_order():
    seen = list(itertools.islice(elements_in_order(Z), 7))
    assert seen == [(0,), (-1,), (1,), (-2,), (2,), (-3,), (3,)]
    f2 = parse_group("F2")
    first = list(itertools.islice(elements_in_order(f2), 5))
    assert first[0] == f2.identity and len(set(first)) == 5


def _floor_fib_slope(x: int) -> int:
    """Exact ``floor(x * (3 - sqrt(5)) / 2)`` via integer square roots."""
    if x == 0:
        return 0
    s = isqrt(5 * x * x)
    if x < 0:
        s = -s - 1  # 5*x*x is never a perfect square for x != 0
    q = 3 * x - s
    return q // 2 - 1 if q % 2 == 0 else (q - 1) // 2


def fibonacci_configuration(ctx):
    """Two-sided mechanical word with the fibonacci substitution's slope:
    an oracle whose factor language is the substitution's."""

    def rule(g):
        n = g[0]
        return _floor_fib_slope(n + 1) - _floor_fib_slope(n)

    return Configuration(ctx, rule, "fibonacci-mechanical")


def test_fibonacci_configuration_has_substitution_factors():
    cfg = fibonacci_configuration(Z)
    fib = builtin_spec("fibonacci_substitution")
    stretch = [cfg.value((n,)) for n in range(-60, 61)]
    for length in (1, 2, 3, 5):
        seen = {
            tuple(stretch[i : i + length])
            for i in range(len(stretch) - length + 1)
        }
        assert seen == set(fib.factors(length))


def test_cylinder_point_stamps_on_separated_backbone():
    alpha = Pattern.of(Z, {(0,): 1, (1,): 1})
    cp = minimal_point_in_cylinder(Z, alpha, 0)
    # the backbone is 2Z: the point is 2-periodic
    assert all(cp.value((n,)) == cp.value((n + 2,)) for n in range(-8, 8))
    # the stamp occurs at every backbone point
    for t in (-4, -2, 0, 2, 4):
        assert cp.value((t,)) == 1 and cp.value((t + 1,)) == 1


def test_cylinder_point_on_finite_group():
    s3 = parse_group("finite:s3")
    alpha = Pattern.of(s3, {s3.identity: 1})
    cp = minimal_point_in_cylinder(s3, alpha, 0)
    assert any(cp.value(g) == 1 for g in s3.ball(3))


def test_cylinder_point_rejects_free_groups():
    f2 = parse_group("F2")
    with pytest.raises(ValueError, match="lattice or finite group context"):
        minimal_point_in_cylinder(f2, Pattern.of(f2, {f2.identity: 1}), 0)


def oracle_cylinder_point(ctx, alpha, default_letter):
    """The lattice cylinder point by its congruence rule: ``g`` takes the
    value of the first cell of ``dom(alpha)`` congruent to it modulo the
    diameters plus one."""
    periods = tuple(max(c) - min(c) + 1 for c in zip(*alpha.domain.elements))
    fmap = dict(alpha.items())

    def rule(g):
        for h, v in fmap.items():
            if all((x - y) % p == 0 for x, y, p in zip(g, h, periods)):
                return v
        return default_letter

    return Configuration(ctx, rule, f"cylinder-point{periods}")


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.data())
def test_cylinder_point_matches_congruence_oracle(rank, data):
    ctx = parse_group("Z" if rank == 1 else f"Z^{rank}")
    cell = st.tuples(*[st.integers(-4, 4)] * rank)
    mapping = data.draw(
        st.dictionaries(cell, st.integers(0, 3), min_size=1, max_size=6)
    )
    alpha = Pattern.of(ctx, mapping)
    default = data.draw(st.integers(0, 3))
    offset = data.draw(st.tuples(*[st.integers(-60, 60)] * rank))
    got = minimal_point_in_cylinder(ctx, alpha, default)
    want = oracle_cylinder_point(ctx, alpha, default)
    for g in ctx.ball(6 if rank == 1 else 3):
        g = ctx.mul(g, offset)
        assert got.value(g) == want.value(g)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_free_dense_point_shows_all_small_patterns(depth):
    fdp = free_dense_point(Z, depth)
    z = fdp.config
    ball = Z.ball(depth - 1)
    want = set(itertools.product((0, 1), repeat=len(ball)))
    # scan a window generously larger than the staged support
    seen = set()
    for t in range(-fdp.support_radius - 8, fdp.support_radius + 9):
        seen.add(tuple(z.value((g[0] + t,)) for g in ball))
    assert want <= seen


def oracle_verify_free_dense_point(ctx, point):
    """Independent recheck of the staged guarantees, by evaluation."""
    z = point.config
    pattern_hits = 0
    freeness_hits = 0
    for st in point.stages:
        for values, site in st.placements:
            shifted = z.shift_by(site)
            got = tuple(shifted.value(x) for x in st.window)
            if got != values:
                return {
                    "ok": False,
                    "failure": "pattern",
                    "stage": len(st.window),
                    "site": ctx.element_to_json(site),
                }
            pattern_hits += 1
        h = st.probe_site
        if z.value(h) != 0 or z.value(ctx.mul(h, st.free_target)) != 1:
            return {
                "ok": False,
                "failure": "freeness",
                "target": ctx.element_to_json(st.free_target),
            }
        freeness_hits += 1
    return {
        "ok": True,
        "pattern_hits": pattern_hits,
        "freeness_hits": freeness_hits,
        "support_radius": point.support_radius,
    }


def test_free_dense_point_recheck():
    fdp = free_dense_point(Z, 3)
    res = oracle_verify_free_dense_point(Z, fdp)
    assert res["ok"] is True
    assert res["pattern_hits"] > 0

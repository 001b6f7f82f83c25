"""Total points: periodic lattices, indicators, cylinder backbones and
the staged free point whose orbit closure is the whole binary shift."""

import itertools

import pytest

from symdyn.configurations import (
    elements_in_order,
    fibonacci_configuration,
    free_dense_point,
    indicator_configuration,
    mapping_configuration,
    minimal_point_in_cylinder,
    periodic_lattice_configuration,
)
from symdyn.corpus import builtin_spec
from symdyn.groups import FiniteSubset, parse_group
from symdyn.subshifts import Pattern

Z = parse_group("Z")


def test_periodic_lattice_configuration():
    cfg = periodic_lattice_configuration(Z, (3,), {(0,): 1, (1,): 0, (2,): 2})
    assert [cfg.value((n,)) for n in range(-3, 4)] == [1, 0, 2, 1, 0, 2, 1]


def test_indicator_and_mapping_configurations():
    ind = indicator_configuration(Z, lambda g: g[0] in (0, 2))
    assert [ind.value((n,)) for n in range(4)] == [1, 0, 1, 0]
    mp = mapping_configuration(Z, {(1,): 7}, 0)
    assert mp.value((1,)) == 7 and mp.value((5,)) == 0


def test_shift_follows_right_action():
    cfg = periodic_lattice_configuration(Z, (4,), {(i,): i for i in range(4)})
    g = (1,)
    moved = cfg.shift_by(g)
    # (g.z)(h) = z(h g)
    for n in range(-4, 5):
        assert moved.value((n,)) == cfg.value((n + 1,))


def test_restrict_gives_pattern():
    cfg = periodic_lattice_configuration(Z, (2,), {(0,): 0, (1,): 1})
    p = cfg.window(FiniteSubset.of(Z, [(0,), (1,), (2,)]))
    assert p.values == (0, 1, 0)


def test_elements_in_order_is_deterministic_ball_order():
    seen = list(itertools.islice(elements_in_order(Z), 7))
    assert seen == [(0,), (-1,), (1,), (-2,), (2,), (-3,), (3,)]
    f2 = parse_group("F2")
    first = list(itertools.islice(elements_in_order(f2), 5))
    assert first[0] == f2.identity and len(set(first)) == 5


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
    assert cp.backbone == (2,)
    # the stamp occurs at every backbone point
    for t in (-4, -2, 0, 2, 4):
        assert cp.config.value((t,)) == 1 and cp.config.value((t + 1,)) == 1


def test_cylinder_point_on_finite_group():
    s3 = parse_group("finite:s3")
    alpha = Pattern.of(s3, {s3.identity: 1})
    cp = minimal_point_in_cylinder(s3, alpha, 0)
    assert any(cp.config.value(g) == 1 for g in s3.ball(3))


def test_cylinder_point_rejects_free_groups():
    f2 = parse_group("F2")
    with pytest.raises(TypeError):
        minimal_point_in_cylinder(f2, Pattern.of(f2, {f2.identity: 1}), 0)


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

"""Acceptance sweep: the nine headline claims and the scale runs, one test
line each.

Each criterion re-derives its data from scratch at the stated scale and
checks against an oracle that does not share code with the construction
under test.  Stated time budgets are asserted, not just hoped for.
"""

import hashlib
import itertools
import random
import time

import pytest

from symdyn.certificates import verify_envelope
from symdyn.cli import main
from symdyn.configurations import free_dense_point, periodic_configuration
from symdyn.constructions import (
    SmallnessRejected,
    build_phi,
    gamma_densify,
    gamma_point,
    least_periodic_point,
    pad_free,
    shatter_small,
    verify_phi,
)
from symdyn.corpus import builtin_spec
from symdyn.groups import (
    FiniteSubset,
    is_separated,
    parse_group,
    maximal_separated,
    set_inv,
    set_mul,
)
from symdyn.irreducibility import check_irreducible, max_separated_subshift
from symdyn.scp import disjointness_window_check, joint_realize
from symdyn.subshifts import (
    EXACT,
    Pattern,
    SftSpec,
    essential_freeness_check,
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


def spaced_indicator_ok(word, lo, hi) -> bool:
    """Window language of maximal ball(1)-separated indicator sets.

    Consecutive ones sit at distances in [lo, hi]; boundary zero runs
    and all-zero windows are capped at hi - 1 (a longer run would leave
    room for another marker).
    """
    ones = [i for i, v in enumerate(word) if v == 1]
    if not ones:
        return len(word) <= hi - 1
    if ones[0] > hi - 1 or (len(word) - 1 - ones[-1]) > hi - 1:
        return False
    return all(lo <= b - a <= hi for a, b in zip(ones, ones[1:]))


def test_criterion_1_randomized_maximal_separated_sets():
    start = time.monotonic()
    rng = random.Random(0)
    plans = {
        "Z": (1, 2, 4, 8),
        "Z^2": (1, 2, 3, 4),
        "F2": (1, 2, 2, 3),
    }
    trials = 0
    for i in range(50):
        name = ("Z", "Z^2", "F2")[i % 3]
        rmin, rmax, kmin, kmax = plans[name]
        ctx = parse_group(name)
        d = ctx.ball(rng.randint(rmin, rmax))
        region = ctx.ball(rng.randint(kmin, kmax))
        s = maximal_separated(ctx, d, region)
        assert is_separated(ctx, d, s), (name, d, s)
        dinv_d = set_mul(ctx, set_inv(ctx, d), d)
        covered = set()
        for se in s:
            covered.update(ctx.mul(x, se) for x in dinv_d)
        assert all(g in covered for g in region), (name, d)
        trials += 1
    elapsed = time.monotonic() - start
    assert trials == 50
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"criterion 1: PASS - 50 trials separated+syndetic in {elapsed:.1f}s")


def test_criterion_2_separation_system_language_and_gluing():
    start = time.monotonic()
    spec, witness = max_separated_subshift(Z, Z.ball(1))
    tg = transfer_graph(spec)
    for length in range(1, 15):
        lang = set(tg.language(length))
        oracle = {
            w
            for w in itertools.product((0, 1), repeat=length)
            if spaced_indicator_ok(w, 3, 5)
        }
        assert lang == oracle, f"length {length}"
    assert witness == Z.ball(3)  # D^3 for D = ball(1)
    rep = check_irreducible(Z, spec, 1, witness, 12)
    assert rep.holds, rep.counterexample
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    print(
        "criterion 2: PASS - marker spacings are exactly [3,5] up to "
        f"length 14, gluing holds over ball(3) at scale 12 in {elapsed:.1f}s"
    )


def test_criterion_3_densification_verifies_on_full_and_golden():
    start = time.monotonic()
    f = interval(0, 1)
    for spec in (FULL, GOLDEN):
        sys_ = build_phi(Z, spec, 1, f)
        env = verify_phi(sys_, scale=40)
        assert env["verdict"] is True, env["evidence"]["violations"][:1]
        assert env["evidence"]["violations"] == []
        assert env["evidence"]["placements_checked"] > 0
        assert env["evidence"]["stretches_checked"] > 0
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
    print(
        "criterion 3: PASS - zero violations on both systems at scale 40 "
        f"in {elapsed:.1f}s"
    )


def test_criterion_4_joint_realization_all_eight_cases():
    z0 = free_dense_point(Z, 4).config
    x0, _ = least_periodic_point(Z, PERIOD2)
    # the staged free point realizes arbitrary binary patterns, so all
    # four assignments on {0, 1} are in play, not just the admissible two
    alphas = [
        Pattern.of(Z, {(0,): a, (1,): b})
        for a, b in itertools.product((0, 1), repeat=2)
    ]
    cylinders = [Pattern.of(Z, {(0,): b}) for b in (0, 1)]
    assert len(alphas) == 4
    realized = 0
    for alpha, u in itertools.product(alphas, cylinders):
        jr, env = joint_realize(Z, PERIOD2, alpha, u, depth=4)
        assert env["verdict"] is True
        for c, v in alpha.items():
            assert z0.value(Z.mul(c, jr.g)) == v
        for c, v in u.items():
            assert x0.value(Z.mul(c, jr.g)) == v
        realized += 1
    assert realized == 8
    print("criterion 4: PASS - 8/8 pattern/cylinder pairs realized on one g")


def test_criterion_5_two_orbit_window_pairs_and_guard():
    expected = {
        "full_shift": {1: 4, 2: 8, 3: 16},
        "golden_mean": {1: 4, 2: 6, 3: 10},
    }
    for other, counts in expected.items():
        spec_y = builtin_spec(other)
        for length, want in counts.items():
            f = interval(0, length - 1)
            env = disjointness_window_check(Z, PERIOD2, spec_y, f, scale=120)
            assert env["verdict"] is True
            assert env["evidence"]["pairs"] == want
            assert env["evidence"]["realized"] == want
    from symdyn.constructions import ConstructionError

    with pytest.raises(ConstructionError):
        disjointness_window_check(Z, PERIOD2, PERIOD2, interval(0, 0), scale=120)
    print(
        "criterion 5: PASS - all joint window pairs realized for lengths "
        "1-3 against both partners; rigid partner rejected"
    )


def test_criterion_6_shattering_matches_twenty_random_choices():
    start = time.monotonic()
    rng = random.Random(1)
    region = [(n,) for n in range(0, 401)]
    squares = [(n * n,) for n in range(21)]
    for _ in range(20):
        chosen = [g for g in squares if rng.random() < 0.5]
        result = shatter_small(Z, "squares", chosen, region)
        chosen_set = set(chosen)
        for g in squares:
            want = 1 if g in chosen_set else 0
            assert result.point.value(g) == want, g
    with pytest.raises(SmallnessRejected) as excinfo:
        shatter_small(Z, "evens", [(0,)], region)
    report = excinfo.value.report
    assert report.overall == "not-small"
    radius1 = next(v for v in report.per_radius if v.radius == 1)
    assert radius1.verdict == "not-small"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    print(
        "criterion 6: PASS - 20 random choices realized exactly on the "
        f"squares, evens rejected at radius 1, in {elapsed:.1f}s"
    )


def test_criterion_7_equivariant_densification_certificate():
    gamma = parse_group("finite:z2")
    base = SftSpec("Z", (2,), (), "z2_letters")
    gsys, env = gamma_densify(Z, gamma, base, interval(0, 0), eps=0.5, scale=40)
    assert env["verdict"] is True
    assert env["evidence"]["violations"] == []
    assert verify_envelope(env).ok
    # the built point cycles the stamp through the whole group
    point = gamma_point(gsys)
    base_word = [gsys.phi.u.value_at((k,)) for k in range(-1, 2)]
    for j in range(4):
        marker = j * gsys.phi.marker_spacing
        got = [point.value((marker + k,)) for k in range(-1, 2)]
        want = [gamma.mul(j % gamma.order, v) for v in base_word]
        assert got == want, marker
    print(
        "criterion 7: PASS - orbit-closed corpus, exact pattern-set "
        "density at scale 40, stamps cycle through the group"
    )


def test_criterion_8_padding_restores_essential_freeness():
    padded = pad_free(GOLDEN)
    f = interval(0, 2)
    projected = {
        Pattern.of(
            Z, {g: project_letter(v, 1, padded.stack) for g, v in p.items()}
        )
        for p in pattern_set(Z, padded, f, EXACT)
    }
    assert projected == pattern_set(Z, GOLDEN, f, EXACT)
    probes = [Pattern.of(Z, {(0,): v}) for v in padded.letters()]
    for g in Z.ball(2):
        if g == Z.identity:
            continue
        rep = essential_freeness_check(Z, padded, g, probes, EXACT)
        assert rep.holds, g
        assert len(rep.witnesses) == len(probes)
    # negative control: without padding the alternating system is
    # 2-periodic, so translation by 2 cannot be separated
    bare_probes = [Pattern.of(Z, {(0,): v}) for v in (0, 1)]
    rep = essential_freeness_check(Z, PERIOD2, (2,), bare_probes, EXACT)
    assert not rep.holds
    assert rep.failed_probe is not None
    p2 = periodic_configuration(Z, {(0,): 0, (1,): 1}, (2,))
    assert all(p2.value((n,)) == p2.value((n + 2,)) for n in range(-20, 21))
    print(
        "criterion 8: PASS - padded system free for all g in ball(2)\\{e}, "
        "unpadded translation-by-2 correctly fails"
    )


def test_criterion_9_cli_manifest_replay_is_byte_identical(tmp_path, capsys):
    runs = [
        (
            "maxsep",
            ["max-sep-shift", "Z", "--d", "ball:1", "--check-scale", "12"],
        ),
        (
            "phi-full",
            ["densify", "full_shift", "--window", "0,1", "--level", "1",
             "--scale", "40"],
        ),
        (
            "phi-golden",
            ["densify", "golden_mean", "--window", "0,1", "--level", "1",
             "--scale", "40"],
        ),
        (
            "shatter",
            ["shatter", "--member", "squares", "--c", "0,4,16",
             "--region", "0..400"],
        ),
    ]
    manifests = []
    for tag, argv in runs:
        cert = str(tmp_path / f"{tag}.cert.json")
        mani = str(tmp_path / f"{tag}.manifest.json")
        code = main(argv + ["--emit", cert, "--manifest", mani])
        assert code == 0, (tag, code)
        manifests.append((tag, mani))
    capsys.readouterr()
    for tag, mani in manifests:
        assert main(["replay", mani]) == 0, tag
        out = capsys.readouterr().out
        assert "byte-identical" in out, (tag, out)
        assert "MISMATCH" not in out
    print(
        "criterion 9: PASS - gluing, densification and shattering runs "
        "replay byte-identically from their manifests"
    )


def test_criterion_10_exact_gluing_at_scale_100():
    start = time.monotonic()
    rep = check_irreducible(Z, GOLDEN, 1, Z.ball(2), 100)
    elapsed = time.monotonic() - start
    # D - D = [-4, 4], so two intervals are ball(2)-apart exactly when at
    # least four free cells part them: count those classes in ball(100)
    width = 201
    apart = sum((width - gap) * (width - gap - 1) // 2 for gap in range(4, width - 1))
    assert rep.holds, rep.counterexample
    assert (rep.pairs_checked, rep.min_gap, rep.mixing_gap) == (apart, 4, 2)
    assert rep.unconditional
    assert elapsed < 15.0, f"budget exceeded: {elapsed:.1f}s"
    print(
        f"criterion 10: PASS - golden mean glues over ball(2) on all {apart} "
        f"interval classes at scale 100 in {elapsed:.1f}s"
    )


def test_criterion_10_exact_gluing_at_scale_200():
    # the scan decides each gap's few behaviour-set pairs and counts its
    # classes by arithmetic, so doubling the scale stays well inside 2 s
    start = time.monotonic()
    rep = check_irreducible(Z, GOLDEN, 1, Z.ball(2), 200)
    elapsed = time.monotonic() - start
    width = 401
    apart = sum((width - gap) * (width - gap - 1) // 2 for gap in range(4, width - 1))
    assert rep.holds, rep.counterexample
    assert (rep.pairs_checked, rep.min_gap, rep.mixing_gap) == (apart, 4, 2)
    assert rep.unconditional
    assert elapsed < 2.0, f"budget exceeded: {elapsed:.2f}s"
    print(
        f"criterion 10: PASS - golden mean glues over ball(2) on all {apart} "
        f"interval classes at scale 200 in {elapsed:.2f}s"
    )


def test_criterion_11_exact_conf_on_4000_cells(capsys):
    # the least golden-mean word from 1 to 1 over 4000 cells, one outward
    # walk of the window; stdout is pinned to the bytes of the per-letter
    # hull loop this walk replaced (which took about 8 s)
    argv = ["conf", "golden_mean", "--f", "0..3999", "--a", "0=1", "--b", "3999=1"]
    start = time.monotonic()
    assert main(argv) == 0
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert out == "0=1," + "".join(f"{n}=0," for n in range(1, 3999)) + "3999=1\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8042b9c9e421c8c69121f00f7d9214af7d611832a019f6be13ecb4ef95fa3688"
    )
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"criterion 11: PASS - least 4000-cell golden-mean gluing in {elapsed:.2f}s")


def test_criterion_13_exact_gluing_stops_deciding_at_the_mixing_gap():
    # the maximal 2-separation system glues at its witness ball(6) from the
    # least apart gap 12; from its mixing gap 14 on no class can fail, so
    # the scan decides gaps 12 and 13 and only counts the classes of the
    # 3986 gaps after them
    spec, witness = max_separated_subshift(Z, Z.ball(2))
    start = time.monotonic()
    rep = check_irreducible(Z, spec, 1, witness, 2000)
    elapsed = time.monotonic() - start
    assert rep.holds, rep.counterexample
    assert (rep.pairs_checked, rep.min_gap, rep.mixing_gap) == (10578907780, 12, 14)
    assert elapsed < 0.5, f"budget exceeded: {elapsed:.2f}s"
    print(
        f"criterion 13: PASS - the maximal 2-separation system glues over its "
        f"witness on {rep.pairs_checked} interval classes at scale 2000 in {elapsed:.2f}s"
    )

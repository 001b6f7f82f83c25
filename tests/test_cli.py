"""End-to-end command-line checks: exit codes, emitted certificates,
verification, and manifest replay."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symdyn
from symdyn.certificates import (
    Claim,
    RunManifest,
    load_certificate,
    load_manifest,
    write_manifest,
)
from symdyn.cli import (
    format_pattern,
    main,
    parse_letter,
    parse_pattern,
    parse_region,
)
from symdyn.groups import (
    BallCapExceeded,
    FiniteGroupContext,
    FiniteSubset,
    LatticeContext,
    parse_group,
    parse_subset,
)
from symdyn.subshifts import (
    EXACT,
    BlockMap,
    ImageSpec,
    Pattern,
    Semantics,
    SftSpec,
    SubshiftError,
    SubstitutionSpec,
    local,
    parse_semantics,
)

Z = parse_group("Z")


# --- parsing helpers -----------------------------------------------------------


def test_parse_region_interval_and_subset_forms():
    r = parse_region(Z, "-2..3")
    assert [g[0] for g in r] == [0, -1, 1, -2, 2, 3]
    assert parse_region(Z, "ball:2") == Z.ball(2)
    with pytest.raises(SubshiftError):
        parse_region(Z, "5..1")


def test_parse_letter_depths():
    assert parse_letter("3") == 3
    assert parse_letter("0.1") == (0, 1)
    assert parse_letter("1.0.1") == (1, 0, 1)


def test_parse_pattern_round_trips_through_format():
    p = parse_pattern(Z, "0=1,1=0,-3=1")
    assert p.value_at((-3,)) == 1
    assert parse_pattern(Z, format_pattern(Z, p)) == p
    stacked = parse_pattern(Z, "0=1.0")
    assert stacked.value_at((0,)) == (1, 0)


def test_parse_pattern_rejects_bad_syntax():
    with pytest.raises(SubshiftError):
        parse_pattern(Z, "0:1")
    with pytest.raises(SubshiftError):
        parse_pattern(Z, "")


# --- simple commands -----------------------------------------------------------


def test_corpus_lists_builtins(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "period2" in out
    assert "golden_mean" in out
    assert "squares" in out


def test_ball_command(capsys):
    assert main(["ball", "Z", "2"]) == 0
    out = capsys.readouterr().out
    assert "|ball(2)| = 5" in out


def test_separated_exit_codes(capsys):
    assert main(["separated", "Z", "--d", "ball:1", "--s", "0,5"]) == 0
    assert main(["separated", "Z", "--d", "ball:1", "--s", "0,1"]) == 1
    out = capsys.readouterr().out
    assert "not separated" in out


def test_small_command_exit_codes(capsys):
    assert main([
        "small", "Z", "--member", "squares", "--radius", "2",
        "--region", "0..200", "--syndetic-cap", "60",
    ]) == 0
    assert "overall: small-up-to-scale" in capsys.readouterr().out
    assert main([
        "small", "Z", "--member", "evens", "--radius", "1",
        "--region", "0..400", "--syndetic-cap", "60",
    ]) == 1


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--radius", "-1"], "radius must be >= 0, got -1"),
        (["--syndetic-cap", "-1"], "syndetic cap must be >= 0, got -1"),
    ],
)
def test_small_negative_radius_or_cap_is_usage_error(flags, message, capsys):
    assert main(["small", "Z", "--member", "squares", "--region", "0..10", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_small_unknown_member_is_usage_error(capsys):
    assert main([
        "small", "Z", "--member", "primes", "--radius", "1", "--region", "0..10",
    ]) == 2
    assert "unknown member" in capsys.readouterr().err


def test_patterns_command(capsys):
    assert main(["patterns", "golden_mean", "--window", "0,1", "--list"]) == 0
    out = capsys.readouterr().out
    assert "3 admissible patterns" in out
    assert "0=1,1=0" in out


def test_conf_command_success_and_rejection(capsys):
    assert main([
        "conf", "golden_mean", "--f", "0,1,2,3,4", "--a", "0=1", "--b", "4=1",
    ]) == 0
    assert "0=1,1=0,2=0,3=0,4=1" in capsys.readouterr().out
    assert main([
        "conf", "period2", "--f", "0,1,2,3,4,5", "--a", "0=0", "--b", "5=0",
    ]) == 1
    assert "rejected:" in capsys.readouterr().err


def test_bad_pattern_syntax_is_usage_error(capsys):
    assert main([
        "conf", "golden_mean", "--f", "0,1", "--a", "0-1", "--b", "1=0",
    ]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "a, cell", [("0=1,0=0", "0"), ("0=1,1=0,00=1", "0"), ("2=0,2=0", "2")]
)
def test_pattern_naming_a_cell_twice_is_usage_error(a, cell, capsys):
    # a repeated cell used to keep its last value and glue silently
    assert main(["conf", "golden_mean", "--f", "0..4", "--a", a, "--b", "4=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: pattern names the cell {cell} twice\n"


def _spec(**fields):
    spec = {"group": "Z", "alphabet": 2, "forbidden": []}
    spec.update(fields)
    return json.dumps({k: v for k, v in spec.items() if v is not None})


@pytest.mark.parametrize(
    "spec, message",
    [
        # forbidding [1, 0] on one cell used to forbid the letter 0
        (_spec(forbidden=[{"domain": [0, 0], "values": [1, 0]}]),
         "forbidden[0].domain names a cell twice"),
        (_spec(forbidden=[{"domain": [0], "values": [5]}]),
         "forbidden[0] uses the letter 5 outside the alphabet"),
        (_spec(forbidden=[{"domain": [0, 1], "values": [1, [1, 0]]}]),
         "forbidden[0] uses the letter (1, 0) outside the alphabet"),
        (_spec(group=None), "missing key group"),
        (_spec(alphabet=None), "missing key alphabet"),
        (_spec(forbidden=[{"domain": [0]}, {"values": [1]}]),
         "missing key forbidden[0].values"),
        (_spec(forbidden=[{"domain": [0], "values": [1]}, {"values": [1]}]),
         "missing key forbidden[1].domain"),
        (_spec(forbidden=[7]), "forbidden[0] must be a JSON object"),
        (_spec(forbidden=[{"domain": [0], "values": ["1"]}]),
         "forbidden[0].values[0] must be int, got '1'"),
        (_spec(forbidden=[{"domain": [0], "values": [True]}]),
         "forbidden[0].values[0] must be int, got True"),
        (_spec(forbidden=[{"domain": [True], "values": [1]}]), "bad Z element: True"),
        (_spec(group="Z^2", forbidden=[{"domain": [[0, 1.5]], "values": [1]}]),
         "bad Z^2 element: [0, 1.5]"),
        (_spec(alphabet=0), "alphabet sizes must be >= 1"),
        (_spec(stack=2**70), f"stack must lie in 1..64, got {2**70}"),
        (_spec(group=2), "group must be str, got 2"),
        (_spec(substitution={"0": [0, 1]}), "missing key substitution.1"),
        # a stack the alphabet list contradicts used to be ignored
        (_spec(alphabet=[2, 2], stack=5), "stack must equal the 2 alphabet sizes, got 5"),
    ],
)
def test_malformed_spec_is_usage_error(spec, message, capsys):
    assert main(["irreducible", spec, "--d", "ball:1", "--scale", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_unparsable_ball_radius_is_usage_error(capsys):
    assert main(["irreducible", "golden_mean", "--d", "ball:x", "--scale", "2"]) == 2
    assert capsys.readouterr().err == "error: cannot parse subset 'ball:x'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["conf", "golden_mean", "--f", "0..x", "--a", "0=1", "--b", "4=1"],
         "cannot parse interval '0..x'"),
        (["conf", "golden_mean", "--f", "0..4", "--a", "0=x", "--b", "4=1"],
         "cannot parse letter 'x'"),
        # str.isdigit accepts superscripts and other scripts' digits, int()
        # reads some of them: ranks take ASCII digits only
        (["ball", "F²", "1"], "cannot parse group descriptor 'F²'"),
        (["ball", "Z^٣", "1"], "bad lattice rank in 'Z^٣'"),
        # every other number takes an optional "-" and ASCII digits only:
        # int() also reads "_", a leading "+", spaces and other scripts' digits
        (["conf", "golden_mean", "--f", "0..1_0", "--a", "0=1", "--b", "1_0=1"],
         "cannot parse interval '0..1_0'"),
        (["conf", "golden_mean", "--f", "٠..٤", "--a", "0=1", "--b", "4=1"],
         "cannot parse interval '٠..٤'"),
        (["conf", "golden_mean", "--f", "+0..4", "--a", "0=1", "--b", "4=1"],
         "cannot parse interval '+0..4'"),
        (["conf", "golden_mean", "--f", "0 .. 4", "--a", "0=1", "--b", "4=1"],
         "cannot parse interval '0 .. 4'"),
        (["conf", "golden_mean", "--f", "0..4", "--a", "0=+1", "--b", "4=1"],
         "cannot parse letter '+1'"),
        (["conf", "golden_mean", "--f", "0..4", "--a", "0=0_1", "--b", "4=1"],
         "cannot parse letter '0_1'"),
        (["conf", "golden_mean", "--f", "0..4", "--a", "0=١", "--b", "4=1"],
         "cannot parse letter '١'"),
        (["conf", "golden_mean", "--f", "0..4", "--a", "+0=1", "--b", "4=1"],
         "bad coordinate in '+0'"),
        (["conf", "golden_mean", "--f", "0..4", "--a", "0=1", "--b", "٤=1"],
         "bad coordinate in '٤'"),
        (["cylinder-point", "Z^2", "--u", "0: 1=1"], "bad coordinate in '0: 1'"),
        (["pad-free", "period2", "--g", "1_0"], "bad coordinate in '1_0'"),
        (["separated", "finite:z3", "--d", "0", "--s", "0,+1"],
         "bad finite-group element '+1'"),
        (["irreducible", "golden_mean", "--d", "ball:+2", "--scale", "4"],
         "cannot parse subset 'ball:+2'"),
        (["irreducible", "golden_mean", "--d", "ball:2", "--scale", "4", "--sem", "local:+1"],
         "cannot parse semantics 'local:+1'"),
    ],
)
def test_unparsable_number_is_usage_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# --- verdict commands ------------------------------------------------------------


def test_irreducible_verdicts(capsys):
    assert main(["irreducible", "golden_mean", "--d", "ball:2", "--scale", "8"]) == 0
    assert "holds" in capsys.readouterr().out
    assert main(["irreducible", "period2", "--d", "ball:2", "--scale", "8"]) == 1
    assert "fails" in capsys.readouterr().out


def test_scp_command_prints_covering_set(capsys):
    assert main(["scp", "period2", "--d", "ball:1", "--u", "0=0"]) == 0
    assert "covering set: 0, -3" in capsys.readouterr().out


def test_lift_scp_command(capsys):
    assert main(["lift-scp", "period2_or", "--d", "ball:1", "--u", "0=1"]) == 0
    assert "covering set: 0" in capsys.readouterr().out


def test_joint_realize_command(capsys):
    assert main([
        "joint-realize", "period2", "--alpha", "0=0,1=1", "--u", "0=1",
    ]) == 0
    assert "realized at g = " in capsys.readouterr().out


def test_disjoint_command_and_guard(capsys):
    assert main([
        "disjoint", "period2", "full_shift", "--window", "0,1", "--scale", "120",
    ]) == 0
    assert "8/8 joint window pairs realized" in capsys.readouterr().out
    assert main([
        "disjoint", "period2", "period2", "--window", "0", "--scale", "120",
    ]) == 1
    assert "rejected:" in capsys.readouterr().err


def test_shatter_rejects_non_small_set(capsys):
    assert main([
        "shatter", "--member", "evens", "--c", "0", "--region", "0..400",
    ]) == 1
    assert "rejected:" in capsys.readouterr().err


def test_densify_command(capsys):
    assert main([
        "densify", "full_shift", "--window", "0", "--level", "1",
        "--scale", "12", "--samples", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "displaying ball radius 1" in out
    assert "holds" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["densify", "full_shift", "--window", "0..2", "--level", "1", "--scale", "460"],
        ["densify", "golden_mean", "--window", "0..2", "--scale", "480"],
    ],
)
def test_densify_at_a_scale_past_the_recursion_limit(argv, capsys):
    # the re-check's first sample is a word of more than 1000 letters
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith(
        f"densification: holds (claim phi-densification, scale {argv[-1]})\n"
    )


def test_densify_refuses_a_ball_whose_collars_cannot_be_reglued(capsys):
    # ball(5) displays both window patterns and glues at scale 6, but not at
    # scale 10, where the gluing windows are as wide as its V^5 collars
    spec = (
        '{"group":"Z","alphabet":2,"name":"r","forbidden":'
        '[{"domain":[-1,0,2],"values":[1,0,0]}]}'
    )
    code = main(["densify", spec, "--window", "0", "--level", "1", "--scale", "56"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "rejected: no displaying ball up to radius 6 shows all 2 window "
        "patterns and verifies gluing\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["densify", "full_shift", "--window", ""],
        ["gamma-densify", "finite:z2", "full_shift", "--window", "", "--eps", "0.5"],
    ],
)
def test_densify_commands_refuse_an_empty_window(argv, capsys):
    # both build the same marker rewrite, so both refuse the same way
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: the window must be non-empty\n"


NO_SEVEN_ZEROS = (
    '{"group":"Z","alphabet":2,"forbidden":'
    '[{"domain":[0,1,2,3,4,5,6],"values":[0,0,0,0,0,0,0]}]}'
)


@pytest.mark.parametrize(
    "spec,word,image",
    [
        ("golden_mean", "(0, 0)", "(1, 1)"),
        # the offending words are longer than the default closure length 6
        (NO_SEVEN_ZEROS, "(1, 1, 1, 1, 1, 1, 1)", "(0, 0, 0, 0, 0, 0, 0)"),
    ],
    ids=["golden_mean", "no-seven-zeros"],
)
def test_gamma_densify_refuses_a_language_the_group_moves(spec, word, image, capsys):
    assert main(["gamma-densify", "finite:z2", spec, "--window", "0", "--eps", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"rejected: base language is not invariant: {word} maps to inadmissible {image}\n"
    )


HARD_SQUARE = (
    '{"group":"Z^2","alphabet":2,"name":"hard_square","forbidden":['
    '{"domain":[[0,0],[1,0]],"values":[1,1]},{"domain":[[0,0],[0,1]],"values":[1,1]}]}'
)


@pytest.mark.parametrize("level", ["0", "2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["irreducible", HARD_SQUARE, "--d", "ball:1", "--scale", "2", "--sem", "local:1"],
        ["conf", "golden_mean", "--f", "0..3", "--a", "0=1", "--b", "3=1"],
        ["minimal-check", "period2", "--probe", "0..1", "--window", "0..5"],
        ["densify", "full_shift", "--window", "0,1", "--scale", "10"],
    ],
    ids=["irreducible", "conf", "minimal-check", "densify"],
)
def test_level_outside_the_stack_is_a_usage_error(argv, level, capsys):
    # --level 0 is a level like any other, not "no level given"
    assert main([*argv, "--level", level]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: level must lie in 1..1, got {level}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["densify", "full_shift", "--window", "0,1", "--level", "1", "--samples", "-1"],
        ["pad-free", "period2", "--g", "2", "--radius-cap", "-1"],
        ["scp", "period2", "--d", "ball:1", "--u", "0=0", "--max-size", "-1"],
        ["maximal-separated", "Z", "--d", "ball:1", "--region=-3..3", "--syndetic-cap", "-1"],
        ["densify", "full_shift", "--window", "0,1", "--level", "1", "--scale", "1"],
        ["densify", "full_shift", "--window", "0,1", "--level", "1", "--witness-scale", "-1"],
        ["densify", "full_shift", "--window", "0,1", "--level", "1", "--witness-scale", "0"],
    ],
    ids=["samples", "radius-cap", "max-size", "syndetic-cap", "densify-scale",
         "witness-scale", "witness-scale-0"],
)
def test_negative_count_is_a_usage_error(argv, capsys):
    # the library refuses it, so verify refuses an edited certificate too;
    # densify refuses it before printing what it built
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["scp", "full_shift", "--d", "ball:1", "--u", "0=1"],
        ["scp", "golden_mean", "--d", "ball:1", "--u", "0=1"],
        ["lift-scp", "golden_or", "--d", "ball:1", "--u", "0=1"],
    ],
    ids=["full_shift", "golden_mean", "lift-golden_or"],
)
def test_negative_max_size_is_refused_before_the_minimality_gate(argv, capsys):
    # none of these systems is window-minimal, so the gate would reject first
    assert main([*argv, "--max-size", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max size must be >= 0, got -1\n"


@pytest.mark.parametrize("sem", ["local:x", "local:"])
def test_unparsable_local_margin_is_a_usage_error(sem, capsys):
    assert main(["irreducible", "golden_mean", "--d", "ball:1", "--scale", "2",
                 "--sem", sem]) == 2
    assert capsys.readouterr().err == f"error: cannot parse semantics '{sem}'\n"


def test_pad_free_command(capsys):
    assert main(["pad-free", "period2", "--g", "2"]) == 0
    assert "holds" in capsys.readouterr().out


def test_cylinder_point_command(capsys):
    assert main(["cylinder-point", "Z", "--u", "0=1,1=1", "--radius", "3"]) == 0
    out = capsys.readouterr().out
    assert out == "0=1,-1=1,1=1,-2=1,2=1,-3=1,3=1\n"


# (group, --u, --default, --radius, stdout) rows printed before the periodic
# points shared one builder
CYLINDER_POINT_ROWS = [
    ("Z", "0=1,2=0", "2", 4, "0=1,-1=0,1=2,-2=2,2=0,-3=1,3=1,-4=0,4=2"),
    ("Z", "-1=2,1=1", "0", 3, "0=0,-1=2,1=1,-2=1,2=2,-3=0,3=0"),
    ("Z^2", "0:0=1", "0", 1, "0:0=1,-1:0=1,0:-1=1,0:1=1,1:0=1"),
    ("Z^2", "0:0=1,1:1=2", "0", 2,
     "0:0=1,-1:0=0,0:-1=0,0:1=0,1:0=0,-2:0=1,-1:-1=2,-1:1=2,0:-2=1,0:2=1,"
     "1:-1=2,1:1=2,2:0=1"),
    ("Z^3", "0:0:0=1,1:0:1=2", "0", 1,
     "0:0:0=1,-1:0:0=0,0:-1:0=1,0:0:-1=0,0:0:1=0,0:1:0=1,1:0:0=0"),
    ("finite:z2", "0=1", "0", 1, "0=1,1=1"),
    ("finite:z3", "0=1", "0", 1, "0=1,1=1,2=1"),
    ("finite:z4", "0=1,1=1", "0", 2, "0=1,1=1,2=1,3=1"),
    ("finite:z6", "0=1,2=0", "2", 3, "0=1,1=1,2=0,3=0,4=2,5=2"),
    ("finite:klein", "0=1", "0", 2, "0=1,1=1,2=1,3=1"),
    ("finite:s3", "0=1", "0", 3, "0=1,1=1,2=1,3=1,4=1,5=1"),
    ("finite:s3", "0=1,1=2", "0", 3, "0=1,1=2,2=1,3=1,4=2,5=2"),
]


@pytest.mark.parametrize("group, u, default, radius, out", CYLINDER_POINT_ROWS)
def test_cylinder_point_prints_the_pinned_window(group, u, default, radius, out,
                                                 capsys):
    argv = ["cylinder-point", group, f"--u={u}", "--default", default,
            "--radius", str(radius)]
    assert main(argv) == 0
    assert capsys.readouterr().out == out + "\n"


def test_cylinder_point_on_free_group_is_usage_error(capsys):
    assert main(["cylinder-point", "F2", "--u", "=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: minimal_point_in_cylinder needs a lattice or finite group context\n"
    )


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["irreducible", "golden_mean", "--d", "ball:2", "--scale"], "--scale"),
        (["conf", "golden_mean", "--f", "0..4", "--a", "0=1", "--b", "4=1", "--level"],
         "--level"),
        (["ball", "Z"], "radius"),
    ],
    ids=["scale", "level", "ball-radius"],
)
@pytest.mark.parametrize("raw", ["1_0", " +1\u0660"])
def test_integer_flag_takes_ascii_digits_only(argv, flag, raw, capsys):
    # argparse prints its own usage line and exits 2
    with pytest.raises(SystemExit) as caught:
        main([*argv, raw])
    assert caught.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f": error: argument {flag}: invalid int value: {raw!r}\n")


@pytest.mark.parametrize("raw", ["lots", "1.5", "0", "-3", " 1_0", "+5", "1\u0660"])
def test_malformed_ball_cap_is_usage_error(raw, monkeypatch, capsys):
    monkeypatch.setenv("SYMDYN_MAX_BALL", raw)
    # Z^7 is used nowhere else, so its balls are not cached yet
    assert main(["ball", "Z^7", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: SYMDYN_MAX_BALL must be a positive integer, got {raw!r}\n"
    )


def test_ball_over_the_cap_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("SYMDYN_MAX_BALL", "5")
    # Z^6 is used nowhere else, so its balls are not cached yet
    assert main(["ball", "Z^6", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: |ball(3)| exceeds SYMDYN_MAX_BALL=5 on Z^6")


def test_interval_over_the_cap_is_usage_error(monkeypatch, capsys):
    # an interval builds every cell, so it stops at the ball cap too
    monkeypatch.setenv("SYMDYN_MAX_BALL", "5")
    assert main(["conf", "golden_mean", "--f", "0..5", "--a", "0=1", "--b", "5=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: interval '0..5' exceeds SYMDYN_MAX_BALL=5 cells\n"
    assert main(["conf", "golden_mean", "--f", "0..4", "--a", "0=1", "--b", "4=1"]) == 0


def test_small_over_the_cap_is_usage_error(monkeypatch, capsys):
    # the smallness shells come from the walk that builds every ball, so
    # they stop at its cap: |ball(3)| = 7 on Z (the region fits the cap)
    monkeypatch.setenv("SYMDYN_MAX_BALL", "5")
    assert main([
        "small", "Z", "--member", "evens", "--radius", "3",
        "--region", "0..4", "--syndetic-cap", "2",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: |ball(3)| exceeds SYMDYN_MAX_BALL=5 on Z\n"


CHAIN10 = json.dumps({
    "group": "Z", "alphabet": 10, "stack": 1, "name": "chain10",
    "substitution": {str(i): [i, i + 1] if i < 9 else [9] for i in range(10)},
})


def test_non_primitive_substitution_is_usage_error(capsys):
    assert main(["patterns", CHAIN10, "--window", "0..0"]) == 2
    assert capsys.readouterr().err.startswith("error: substitution is not primitive")


# --- certificates on disk ---------------------------------------------------------


def test_emit_then_verify_round_trip(tmp_path, capsys):
    cert = str(tmp_path / "irr.json")
    assert main([
        "irreducible", "golden_mean", "--d", "ball:2", "--scale", "8",
        "--emit", cert,
    ]) == 0
    env = load_certificate(cert)
    assert env["claim"] == "irreducible-gluing"
    assert main(["verify", cert]) == 0
    assert "ok - reproduced byte-identically" in capsys.readouterr().out


def test_verify_detects_tampered_certificate(tmp_path, capsys):
    cert = str(tmp_path / "irr.json")
    main(["irreducible", "golden_mean", "--d", "ball:2", "--scale", "8",
          "--emit", cert])
    env = json.loads(Path(cert).read_text())
    env["verdict"] = False
    with open(cert, "w") as fh:
        fh.write(json.dumps(env))
    assert main(["verify", cert]) == 1
    assert "FAILED" in capsys.readouterr().out


@pytest.mark.parametrize(
    "key,value,message",
    [("witness_scale", 0, "witness scale must be >= 1, got 0"),
     ("max_v_radius", -1, "max v radius must be >= 0, got -1")],
)
def test_verify_refuses_a_densification_rebuilt_from_a_bad_bound(tmp_path, capsys, key, value,
                                                                  message):
    cert = str(tmp_path / "phi.json")
    assert main(["densify", "full_shift", "--window", "0,1", "--level", "1",
                 "--samples", "1", "--emit", cert]) == 0
    env = json.loads(Path(cert).read_text())
    env["inputs"][key] = value
    Path(cert).write_text(json.dumps(env))
    capsys.readouterr()
    assert main(["verify", cert]) == 1
    assert f"FAILED - rebuild failed: {message}" in capsys.readouterr().out


def test_verify_unreadable_file(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "missing.json")]) == 1
    assert "unreadable" in capsys.readouterr().out


def test_emitted_false_verdict_still_verifies(tmp_path, capsys):
    cert = str(tmp_path / "p2.json")
    assert main([
        "irreducible", "period2", "--d", "ball:2", "--scale", "8",
        "--emit", cert,
    ]) == 1
    assert main(["verify", cert]) == 0
    assert "fails (as recorded)" in capsys.readouterr().out


# --- manifests and replay -----------------------------------------------------------


def test_manifest_records_argv_without_manifest_flag(tmp_path):
    cert = str(tmp_path / "c.json")
    mani = str(tmp_path / "m.json")
    main(["irreducible", "golden_mean", "--d", "ball:2", "--scale", "8",
          "--emit", cert, "--manifest", mani])
    m = load_manifest(mani)
    assert "--manifest" not in m.argv
    assert m.argv[0] == "irreducible"
    assert m.outputs[0][0] == cert


def test_replay_reproduces_byte_identical_artifacts(tmp_path, capsys):
    cert = str(tmp_path / "c.json")
    mani = str(tmp_path / "m.json")
    main(["irreducible", "golden_mean", "--d", "ball:2", "--scale", "8",
          "--emit", cert, "--manifest", mani])
    assert main(["replay", mani]) == 0
    assert "byte-identical" in capsys.readouterr().out


def test_replay_leaves_manifest_intact_and_is_repeatable(tmp_path, capsys):
    cert = str(tmp_path / "c.json")
    mani = str(tmp_path / "m.json")
    main(["irreducible", "golden_mean", "--d", "ball:2", "--scale", "8",
          "--emit", cert, "--manifest", mani])
    before = Path(mani).read_text()
    assert main(["replay", mani]) == 0
    assert Path(mani).read_text() == before
    assert main(["replay", mani]) == 0
    assert capsys.readouterr().out.count("byte-identical") == 2


def test_replay_detects_drifted_artifacts(tmp_path, capsys):
    cert = str(tmp_path / "c.json")
    mani = str(tmp_path / "m.json")
    main(["irreducible", "golden_mean", "--d", "ball:2", "--scale", "8",
          "--emit", cert, "--manifest", mani])
    m = json.loads(Path(mani).read_text())
    m["outputs"][0][1] = "0" * 64
    with open(mani, "w") as fh:
        fh.write(json.dumps(m))
    assert main(["replay", mani]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def _file_state(paths):
    return {p: (Path(p).read_bytes(), os.stat(p).st_mtime_ns) for p in paths}


def _backdated(paths):
    """:func:`_file_state` after moving each file's mtime to a past second,
    so a rewrite shows even within the clock's resolution."""
    for p in paths:
        os.utime(p, (1_000_000_000, 1_000_000_000))
    return _file_state(paths)


def test_replay_redirects_an_abbreviated_emit_flag(tmp_path, monkeypatch, capsys):
    # argparse takes any unambiguous prefix of a flag, so the manifest
    # records --emi as typed and drops --man with its value
    monkeypatch.chdir(tmp_path)
    assert main(["irreducible", "golden_mean", "--d", "ball:2", "--scale", "10",
                 "--emi", "a.json", "--man", "m.json"]) == 0
    assert load_manifest("m.json").argv == (
        "irreducible", "golden_mean", "--d", "ball:2", "--scale", "10", "--emi", "a.json"
    )
    before = _backdated(["a.json", "m.json"])
    capsys.readouterr()
    assert main(["replay", "m.json"]) == 0
    assert capsys.readouterr().out.endswith("replay a.json: byte-identical\n")
    assert _file_state(before) == before
    assert sorted(os.listdir(tmp_path)) == ["a.json", "m.json"]


@pytest.mark.parametrize(
    "flag",
    [["--manifest=m.json"], ["--man", "m.json"], ["--man=m.json"], ["--m", "m.json"],
     ["--manif=m.json"]],
)
def test_manifest_drops_every_accepted_form_of_its_own_flag(tmp_path, monkeypatch, flag):
    # each form writes the bytes the full flag writes
    monkeypatch.chdir(tmp_path)
    argv = ["irreducible", "golden_mean", "--d", "ball:2", "--scale", "6", "--emit", "a.json"]
    assert main([*argv, "--manifest", "full.json"]) == 0
    assert load_manifest("full.json").argv == tuple(argv)
    assert main([*argv[:6], *flag, *argv[6:]]) == 0
    assert Path("m.json").read_bytes() == Path("full.json").read_bytes()


def test_replay_of_an_unparsable_argv_is_an_invalid_manifest(tmp_path, capsys):
    mani = tmp_path / "m.json"
    mani.write_text('{"argv": ["bogus"], "outputs": [], "version": 1}')
    assert main(["replay", str(mani)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "invalid: recorded argv does not parse: argument command: invalid choice: 'bogus'"
    )
    assert "usage" not in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["conf", "-h"]])
def test_replay_of_a_help_argv_prints_no_help(argv, tmp_path, capsys):
    mani = str(tmp_path / "m.json")
    write_manifest(mani, RunManifest(tuple(argv), ()))
    assert main(["replay", mani]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid: recorded argv does not parse: no command to run\n"


def test_replay_refuses_a_manifest_that_records_a_replay(tmp_path, capsys):
    mani = str(tmp_path / "m.json")
    write_manifest(mani, RunManifest(("replay", mani), ()))
    before = _backdated([mani])
    assert main(["replay", mani]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid: a manifest cannot record a replay\n"
    assert _file_state(before) == before


def test_replay_missing_manifest_is_usage_error(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


# --- one parser per process --------------------------------------------------------


def test_main_builds_the_parser_once(tmp_path, monkeypatch, capsys):
    cert, mani = str(tmp_path / "c.json"), str(tmp_path / "m.json")
    # warm-up: whatever builds the parser has run by now
    main(["irreducible", "golden_mean", "--d", "ball:2", "--scale", "8",
          "--emit", cert, "--manifest", mani])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["corpus"]) == 0
    assert main(["ball", "Z", "1"]) == 0
    assert main(["replay", mani]) == 0
    assert "byte-identical" in capsys.readouterr().out
    assert built == []


def test_no_value_leaks_from_one_call_to_the_next(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["irreducible", "golden_mean", "--d", "ball:2", "--scale", "10"]
    assert main([*argv, "--emit", "a.json"]) == 0
    first = capsys.readouterr().out
    os.remove("a.json")
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert os.listdir(tmp_path) == []


# runs help, subcommand help and an invalid choice twice in one process
HELP_TWICE = """
import contextlib, io, json
from symdyn.cli import main
runs = []
for _ in range(2):
    for argv in (["--help"], ["irreducible", "--help"], ["bogus"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        runs.append([out.getvalue(), err.getvalue(), code])
print(json.dumps(runs))
"""


def _run_fresh(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(symdyn.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)


def test_help_and_usage_errors_print_the_same_bytes_on_every_call():
    done = _run_fresh(HELP_TWICE)
    runs = json.loads(done.stdout)
    assert runs[:3] == runs[3:]
    (top, _, top_code), (sub, _, sub_code), (_, bad, bad_code) = runs[:3]
    assert top.startswith("usage: symdyn [-h]") and top_code == 0
    assert sub.startswith("usage: symdyn irreducible [-h]") and sub_code == 0
    assert "invalid choice: 'bogus'" in bad and bad_code == 2


# what importing the CLI may leave behind: nothing built, nothing cached
IMPORT_ONLY = """
import json
import sys
import symdyn.cli
from symdyn import cli, groups, subshifts
print(json.dumps({
    "transfer graphs": len(subshifts._TRANSFER_CACHE),
    "pattern sets": len(subshifts._PATTERN_SET_CACHE),
    "group contexts": len(groups._CONTEXT_CACHE),
    "parsers": cli.build_parser.cache_info().currsize,
    "heavy modules": [m for m in ("dataclasses", "inspect") if m in sys.modules],
}))
"""


def test_importing_the_cli_builds_nothing():
    # every process pays for import-time work, a one-shot command included;
    # dataclasses and inspect (which pulls in ast, dis and tokenize) cost
    # about a quarter of the start-up, and the record types need neither
    built = json.loads(_run_fresh(IMPORT_ONLY).stdout)
    assert built.pop("heavy modules") == []
    assert built == dict.fromkeys(built, 0) and len(built) == 4


def test_value_types_keep_their_hash_and_compare_within_their_class():
    # sets and dicts of these iterate in hash order, and certificates are
    # written in that order, so each hash must stay what it was
    f = Z.ball(1)
    p = Pattern.on(f, (0, 1, 0))
    spec = SftSpec("Z", (2,), (p,), "s")
    rules = ((0, 1), (1, 0))
    bmap = BlockMap(f, (2,), "or", max)
    run = lambda ctx: {}  # noqa: E731
    cases = [
        (f, f.elements, FiniteSubset.of(Z, [(1,), (0,), (-1,)])),
        (p, (f, (0, 1, 0)), Pattern.of(Z, {(-1,): 1, (0,): 0, (1,): 0})),
        (EXACT, ("exact", 0), Semantics("exact")),
        (local(2), ("local", 2), Semantics("local", 2)),
        (spec, ("Z", (2,), (p,), "s"), SftSpec("Z", (2,), (p,), "s")),
        (SubstitutionSpec("Z", (2,), rules, "tm"), ("Z", (2,), rules, "tm"),
         SubstitutionSpec("Z", (2,), rules, "tm")),
        (bmap, (f, (2,), "or"), BlockMap(f, (2,), "or", min)),
        (ImageSpec(spec, bmap, "i"), (spec, bmap, "i"), ImageSpec(spec, bmap, "i")),
        (Claim("c", "m", (("group", "group"),), run), ("c", "m", (("group", "group"),), run),
         Claim("c", "m", (("group", "group"),), run)),
    ]
    for value, fields, twin in cases:
        assert hash(value) == hash(fields) == hash(twin)
        assert value == twin and value is not twin
        assert value != fields and fields != value
        assert not hasattr(value, "__dict__")  # slotted: no per-instance dict
    assert p != Pattern.on(f, (0, 1, 1)) and EXACT != local(0)


# --- random text into every text parser ----------------------------------------------

INT = r"-?[0-9]+"
CONTEXTS = [parse_group(d) for d in ("Z", "Z^2", "F2", "finite:z3")]
# the parsers' own syntax, what int() reads besides ASCII digits, and
# other scripts' digits
PIECES = ["0", "1", "7", "12", "-", "..", ".", ":", ",", "=", "_", "+", " ",
          "\t", "\u3000", "٣", "²", "١", "ball:", "local:", "exact", "Z", "Z^",
          "F", "finite:", "z3", "e", "a", "A", "b"]
# a number as int() reads it, mostly in forms a strict parser must refuse,
# inside the syntax around numbers
LOOSE_INT = st.tuples(st.sampled_from(["", "-", "+", " "]),
                      st.sampled_from(["0", "7", "12", "1_0", "٣", "²", "1 2"]),
                      st.sampled_from(["", " "])).map("".join)
TEXTS = st.one_of(
    st.text(max_size=12),
    st.lists(st.sampled_from(PIECES), max_size=8).map("".join),
    st.tuples(st.sampled_from(["", "ball:", "local:", "Z^", "F", "0..", "0:", "0=", "0."]),
              LOOSE_INT,
              st.sampled_from(["", "", "", "..1", ":1", "=1", ",1", ".1"])).map("".join),
)


def strict_element(ctx, text):
    """Whether every integer ``element_from_text`` reads is ``-?[0-9]+``."""
    if isinstance(ctx, LatticeContext):
        return re.fullmatch(f"{INT}(?::{INT})*", text) is not None
    if isinstance(ctx, FiniteGroupContext):
        return re.fullmatch(INT, text) is not None
    return True  # free-group words hold no integers


def strict_subset(ctx, text):
    text = text.strip()
    if text.startswith("ball:"):
        return re.fullmatch(f"ball:{INT}", text) is not None
    return not text or all(strict_element(ctx, p.strip()) for p in text.split(","))


def strict_letter(text):
    return re.fullmatch(f"{INT}(?:\\.{INT})*", text.strip()) is not None


@settings(max_examples=600, deadline=None)
@given(TEXTS)
def test_text_parsers_return_a_value_or_raise_value_error(text):
    # each check: (call, whether a returned value read only -?[0-9]+ numbers)
    checks = [
        (lambda: parse_letter(text), lambda: strict_letter(text)),
        (lambda: parse_semantics(text),
         lambda: re.fullmatch(f"exact|local:{INT}", text.strip()) is not None),
        (lambda: parse_group(text),
         lambda: re.fullmatch(r"Z|Z\^[0-9]+|F[0-9]+|finite:.*", text.strip()) is not None),
    ]
    for ctx in CONTEXTS:
        checks += [
            (lambda ctx=ctx: ctx.element_from_text(text), lambda ctx=ctx: strict_element(ctx, text)),
            (lambda ctx=ctx: parse_subset(ctx, text), lambda ctx=ctx: strict_subset(ctx, text)),
            (lambda ctx=ctx: parse_region(ctx, text),
             lambda ctx=ctx: (re.fullmatch(f"{INT}\\.\\.{INT}", text.strip()) is not None
                              if ctx.describe() == "Z" and ".." in text
                              else strict_subset(ctx, text))),
            (lambda ctx=ctx: parse_pattern(ctx, text),
             lambda ctx=ctx: all(strict_element(ctx, cell.strip()) and strict_letter(val)
                                 for cell, _, val in (c.partition("=") for c in text.split(",")))),
        ]
    with pytest.MonkeyPatch.context() as mp:
        # a long interval or a wide ball stops at the cap
        mp.setenv("SYMDYN_MAX_BALL", "50")
        for call, strict in checks:
            try:
                call()
            except (ValueError, BallCapExceeded):
                continue
            assert strict(), text

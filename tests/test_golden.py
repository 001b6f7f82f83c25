"""Golden certificates: every claim re-emits byte for byte.

Each file under ``tests/golden/`` was written by ``symdyn ARGV --emit
tests/golden/NAME.cert.json`` for one row of ``GOLDEN`` below.  The test
re-runs the command and compares the emitted bytes with the stored file,
so any change to a verdict, a piece of evidence or the canonical JSON
shows up as a failing row.  The rows are the README's certificate-emitting
commands, one command for each remaining claim (``scp-lift``), a covering
witness on a substitution system (the one input that is not finite-type),
the README's failing exact check, and two local-semantics gluing checks (F2
and Z^2).  Four larger local checks, hard square on Z^2 at scales 5 and 7
and ``f2_hard`` at scales 3 and 4, pin the local scan's order and pair count
at scales where most translation classes are decided without a search.  Two
more local checks pin the signature search where it reaches furthest: a
stacked Z^2 system checked at level 1, whose second level leaves every core
cell of a domain open, and hard square under ``local:2``, whose thickened
domains have a two-layer collar.  Two
more exact checks pin the interval scan's order and pair count: a holding
one with an asymmetric D at scale 30, and a failing one on a gap shift
whose first counterexample comes after 36 apart classes.  The maximal
2-separation system at scale 40 pins the pair count of a scan that stops
deciding classes at its mixing gap 14, two gaps past its least apart gap.
Two stamp rows run at the benchmark's sizes: densification with a
three-cell window at scale 60 (displaying radius 5, so the marker system
has forbidden diameter 100), and shattering five squares over ``0..600``.
Every stored certificate must also verify from its inputs alone.
"""

import json
from pathlib import Path

import pytest

from symdyn import known_claims, load_certificate, verify_envelope
from symdyn.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden")

CHECKERBOARD = (
    '{"group":"Z^2","alphabet":2,"name":"checkerboard","forbidden":['
    '{"domain":[[0,0],[1,0]],"values":[0,0]},{"domain":[[0,0],[1,0]],"values":[1,1]},'
    '{"domain":[[0,0],[0,1]],"values":[0,0]},{"domain":[[0,0],[0,1]],"values":[1,1]}]}'
)
# ones separated by two to four zeros
GAP_SHIFT = (
    '{"group":"Z","alphabet":2,"name":"gap_shift","forbidden":['
    '{"domain":[0,1],"values":[1,1]},{"domain":[0,1,2],"values":[1,0,1]},'
    '{"domain":[0,1,2,3,4],"values":[0,0,0,0,0]}]}'
)
HARD_SQUARE = (
    '{"group":"Z^2","alphabet":2,"name":"hard_square","forbidden":['
    '{"domain":[[0,0],[1,0]],"values":[1,1]},{"domain":[[0,0],[0,1]],"values":[1,1]}]}'
)
# two stacked levels: level-1 gluing reads fills of the second level too
STACKED_DOMINO = (
    '{"group":"Z^2","alphabet":[2,2],"name":"stacked_domino","forbidden":['
    '{"domain":[[0,0],[1,0]],"values":[[0,0],[0,0]]},'
    '{"domain":[[0,0],[1,0]],"values":[[0,1],[0,1]]},'
    '{"domain":[[0,0],[0,1]],"values":[[1,0],[1,1]]},'
    '{"domain":[[0,0],[0,1]],"values":[[0,1],[1,1]]}]}'
)
F2_HARD = (
    '{"group":"F2","alphabet":2,"name":"f2_hard","forbidden":['
    '{"domain":["","a"],"values":[1,1]},{"domain":["","b"],"values":[1,1]}]}'
)

# name -> (argv without --emit, exit code)
GOLDEN = {
    "golden-mean": (["irreducible", "golden_mean", "--d", "ball:2", "--scale", "10"], 0),
    "period2-fails": (["irreducible", "period2", "--d", "ball:1", "--scale", "8"], 1),
    "golden-mean-asym": (["irreducible", "golden_mean", "--d=-1,0,3", "--scale", "30"], 0),
    "gap-shift-fails": (["irreducible", GAP_SHIFT, "--d=0,1,3", "--scale", "10"], 1),
    "max-sep-shift": (["max-sep-shift", "Z", "--d", "ball:1", "--check-scale", "12"], 0),
    "max-sep-shift-d2": (["max-sep-shift", "Z", "--d", "ball:2", "--check-scale", "40"], 0),
    "densify": (["densify", "full_shift", "--window", "0,1", "--level", "1",
                 "--scale", "40"], 0),
    "scp": (["scp", "period2", "--d", "ball:1", "--u", "0=0"], 0),
    "scp-substitution": (["scp", "fibonacci_substitution", "--d", "ball:1",
                          "--u", "0=1"], 0),
    "lift-scp": (["lift-scp", "period2_or", "--d", "ball:1", "--u", "0=1"], 0),
    "joint-realize": (["joint-realize", "period2", "--alpha", "0=1,1=1", "--u", "0=0"], 0),
    "disjoint": (["disjoint", "period2", "golden_mean", "--window", "0..1"], 0),
    "shatter": (["shatter", "--member", "squares", "--c", "0,4,16",
                 "--region", "0..400"], 0),
    "densify-fs60": (["densify", "full_shift", "--window", "0..2", "--level", "1",
                      "--scale", "60", "--seed", "0"], 0),
    "shatter-sq600": (["shatter", "--member", "squares", "--c", "0,9,64,121,400",
                       "--region", "0..600"], 0),
    "gamma-densify": (["gamma-densify", "finite:z2", "full_shift", "--window", "0",
                       "--eps", "0.5", "--scale", "40"], 0),
    "pad-free": (["pad-free", "period2", "--levels", "1", "--g", "2"], 0),
    "f2-hard-local": (["irreducible", F2_HARD, "--d", "ball:1", "--scale", "2",
                       "--sem", "local:1"], 0),
    "checkerboard-local-fails": (["irreducible", CHECKERBOARD, "--d", "ball:1",
                                  "--scale", "2", "--sem", "local:1"], 1),
    "hard-square-local-s5": (["irreducible", HARD_SQUARE, "--d", "ball:1", "--scale", "5",
                              "--sem", "local:1"], 0),
    "f2-hard-local-s3": (["irreducible", F2_HARD, "--d", "ball:1", "--scale", "3",
                          "--sem", "local:1"], 0),
    "f2-hard-local-s4": (["irreducible", F2_HARD, "--d", "ball:1", "--scale", "4",
                          "--sem", "local:1"], 0),
    "hard-square-local-s7": (["irreducible", HARD_SQUARE, "--d", "ball:1", "--scale", "7",
                              "--sem", "local:1"], 0),
    "stacked-local-level1": (["irreducible", STACKED_DOMINO, "--d", "ball:1", "--scale", "3",
                              "--sem", "local:1", "--level", "1"], 0),
    "hard-square-local-m2": (["irreducible", HARD_SQUARE, "--d", "ball:1", "--scale", "3",
                              "--sem", "local:2"], 0),
}


def test_golden_set_covers_every_claim():
    claims = {
        json.loads((GOLDEN_DIR / f"{name}.cert.json").read_text())["claim"]
        for name in GOLDEN
    }
    assert claims == set(known_claims())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_certificate_re_emits_byte_identically(name, tmp_path, capsys):
    argv, code = GOLDEN[name]
    out = tmp_path / f"{name}.cert.json"
    assert main([*argv, "--emit", str(out)]) == code
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.cert.json").read_bytes()


@pytest.mark.parametrize(
    "path", sorted(GOLDEN_DIR.glob("*.cert.json")), ids=lambda p: p.name
)
def test_golden_certificate_verifies_from_its_inputs(path):
    res = verify_envelope(load_certificate(str(path)))
    assert res.ok, res.detail

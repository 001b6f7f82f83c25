"""Seeded workloads for the symdyn benchmark.

A workload is a list of ``Op`` records, each one ``symdyn`` CLI invocation.
``build(name, seed)`` is a pure function of its arguments: the same seed
gives the same argv list, byte for byte.  Scales are fixed per op, so only
the inputs (random specs, patterns, choice sets) move with the seed and run
lengths stay comparable across seeds.

Every README CLI example appears in exactly one workload, with the README
transcript as its expected verdict line.

Expectations
------------
An op's ``expect`` is a tuple of acceptable outcomes, each a dict with an
exit code ``rc`` (an int or a list of ints) and either the exact verdict
``line`` or a ``prefix`` of it.  The verdict line is the last non-empty
line of stdout followed by stderr.  Ops whose argv does not depend on the
seed are checked on every seed.  Seeded ops are checked against
``expected.json`` (recorded at ``DEFAULT_SEED`` by ``record.py``) only at
that seed; on other seeds they are checked for crashes only.

``defect`` marks a known wrong answer that stays in as a failing op: the
expectation is the correct behaviour, and ``defect_sig`` is the outcome the
program gives today.  A failure matching ``defect_sig`` is a known failure;
any other failure is unexpected.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0
EXPECTED_FILE = Path(__file__).with_name("expected.json")

# Why each workload exists: which layers do its work, and which ROADMAP
# items show on it.  A later change names its claim by workload and metric.
WHY = {
    "gluing-z": (
        "groups.are_apart on interval subsets does ~98% of the work and the "
        "_IntervalGluer the rest; the local fill engine and free_dense_point "
        "do none, so ROADMAP items 1a and 2 show here and nowhere else."
    ),
    "stamps": (
        "free_dense_point (~1.0 s of each joint-realize), is_small/interior "
        "(the evens rejection) and verify_phi/conf collars do the work; "
        "gluing scans run only at witness scale 6 and the local engine is "
        "idle, so ROADMAP items 1b and 1c show here."
    ),
    "local-engine": (
        "fill_completions/_occurrence_conflict do the work and are_apart runs "
        "on ball domains, not intervals; ROADMAP item 5 shows here, and an "
        "interval-only apartness rewrite must show no change here."
    ),
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple
    emits: bool = False  # writes <id>.cert.json
    seeded: bool = False  # argv depends on the seed
    expect: tuple = ()
    defect: str = ""
    defect_sig: dict = field(default_factory=dict)

    @property
    def cert(self) -> str:
        return f"{self.id}.cert.json" if self.emits else ""

    def full_argv(self) -> list:
        """The argv, with ``--emit <cert>`` added unless it already names it."""
        if self.emits and "--emit" not in self.argv:
            return [*self.argv, "--emit", self.cert]
        return list(self.argv)


def _ok(line: str, rc: int = 0) -> tuple:
    return ({"rc": rc, "line": line},)


def _gluing(name: str, scale: int, holds: bool = True) -> tuple:
    word = "holds" if holds else "fails"
    return _ok(
        f"{name} gluing over D: {word} (claim irreducible-gluing, scale {scale})",
        0 if holds else 1,
    )


def _spec(group: str, alphabet: int, forbidden: list, name: str) -> str:
    obj = {"group": group, "alphabet": alphabet, "forbidden": forbidden, "name": name}
    return json.dumps(obj, separators=(",", ":"))


def _z_sft(rng: random.Random, alphabet: int, lengths: tuple, name: str) -> str:
    """SFT on Z forbidding one random word per entry of ``lengths``."""
    forbidden = [
        {"domain": list(range(n)), "values": [rng.randrange(alphabet) for _ in range(n)]}
        for n in lengths
    ]
    return _spec("Z", alphabet, forbidden, name)


def _z2_two_cell(rng: random.Random, name: str) -> str:
    """Binary Z^2 SFT forbidding one horizontal and one vertical domino."""
    forbidden = [
        {"domain": [[0, 0], step], "values": [rng.randrange(2), rng.randrange(2)]}
        for step in ([1, 0], [0, 1])
    ]
    return _spec("Z^2", 2, forbidden, name)


def _asym_d(rng: random.Random) -> str:
    """A non-symmetric three-element D of diameter 3 containing 0.

    Passed as ``--d=...``: a leading minus would otherwise read as a flag."""
    return rng.choice(("0,1,3", "0,2,3", "-3,-1,0", "-3,-2,0", "-1,0,2", "-2,0,1"))


def _z_pattern(rng: random.Random, cells: range, allowed) -> str:
    """Random ``cell=value`` pattern on ``cells`` whose word is ``allowed``."""
    while True:
        values = [rng.randrange(2) for _ in cells]
        if allowed(values):
            return ",".join(f"{c}={v}" for c, v in zip(cells, values))


def _no_11(values) -> bool:
    return all(not (a and b) for a, b in zip(values, values[1:]))


HARD_SQUARE = _spec(
    "Z^2", 2,
    [{"domain": [[0, 0], [1, 0]], "values": [1, 1]},
     {"domain": [[0, 0], [0, 1]], "values": [1, 1]}],
    "hard_square",
)
CHECKERBOARD = _spec(
    "Z^2", 2,
    [{"domain": [[0, 0], step], "values": [v, v]}
     for step in ([1, 0], [0, 1]) for v in (0, 1)],
    "checkerboard",
)
F2_HARD = _spec(
    "F2", 2,
    [{"domain": ["", "a"], "values": [1, 1]}, {"domain": ["", "b"], "values": [1, 1]}],
    "f2_hard",
)
# 0->01, 1->12, ..., 8->89, 9->9: every letter occurs in the fixed point.
CHAIN10 = json.dumps(
    {"group": "Z", "alphabet": 10, "stack": 1, "name": "chain10",
     "substitution": {str(i): ([i, i + 1] if i < 9 else [9]) for i in range(10)}},
    separators=(",", ":"),
)


def _gluing_z(rng: random.Random) -> list:
    asym = _asym_d(rng)
    sft4 = _z_sft(rng, 4, (3,), "sft4")
    sft3 = _z_sft(rng, 3, (2, 3), "sft3")
    # Whether a random binary SFT glues is a coin toss, and a failing check
    # is ~10x cheaper than a holding one, so it runs at a small scale to
    # keep the pass's length from depending on the seed; the 3- and 4-letter
    # shapes glue at nearly constant cost.
    sft2 = _z_sft(rng, 2, tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3))), "sft2")
    conf_a = _z_pattern(rng, range(0, 3), _no_11)
    conf_b = _z_pattern(rng, range(197, 200), _no_11)
    full_a = _z_pattern(rng, range(0, 4), lambda v: True)
    full_b = _z_pattern(rng, range(36, 40), lambda v: True)
    sft4_a = f"0={rng.randrange(4)}"
    sft4_b = f"79={rng.randrange(4)}"
    return [
        # README examples
        Op("corpus", ("corpus",), expect=_ok("member predicates: evens, squares")),
        Op("gm", ("irreducible", "golden_mean", "--d", "ball:2", "--scale", "10",
                  "--emit", "gm.cert.json", "--manifest", "gm.manifest.json"),
           emits=True, expect=_gluing("golden_mean", 10)),
        # The README shows "replay gm.manifest.json: byte-identical"; replay
        # prints one line per artifact, naming the certificate.
        Op("gm-replay", ("replay", "gm.manifest.json"),
           expect=_ok("replay gm.cert.json: byte-identical")),
        Op("conf-readme", ("conf", "golden_mean", "--f", "0..4", "--a", "0=1", "--b", "4=1"),
           expect=_ok("0=1,1=0,2=0,3=0,4=1")),
        Op("msep1-12", ("max-sep-shift", "Z", "--d", "ball:1", "--check-scale", "12"),
           emits=True,
           expect=_ok("maximal-separation system: holds (claim irreducible-gluing, scale 12)")),
        Op("p2-readme", ("irreducible", "period2", "--d", "ball:1", "--scale", "8"),
           emits=True, expect=_gluing("period2", 8, holds=False)),
        # heavy fixed scans
        Op("gm-26", ("irreducible", "golden_mean", "--d", "ball:2", "--scale", "26"), emits=True),
        Op("fs-18", ("irreducible", "full_shift", "--d", "ball:1", "--scale", "18"), emits=True),
        Op("p2-24", ("irreducible", "period2", "--d", "ball:2", "--scale", "24"), emits=True),
        Op("msep1-16", ("max-sep-shift", "Z", "--d", "ball:1", "--check-scale", "16"), emits=True),
        Op("msep2-16", ("max-sep-shift", "Z", "--d", "ball:2", "--check-scale", "16"), emits=True),
        # seeded
        Op("gm-asym", ("irreducible", "golden_mean", f"--d={asym}", "--scale", "20"),
           emits=True, seeded=True),
        Op("sft4", ("irreducible", sft4, "--d", "ball:1", "--scale", "20"), emits=True, seeded=True),
        Op("sft3", ("irreducible", sft3, f"--d={asym}", "--scale", "20"), emits=True, seeded=True),
        Op("sft2", ("irreducible", sft2, "--d", "ball:2", "--scale", "12"), emits=True, seeded=True),
        Op("conf-gm", ("conf", "golden_mean", "--f", "0..199", "--a", conf_a, "--b", conf_b),
           seeded=True),
        Op("conf-fs", ("conf", "full_shift", "--f", "0..39", "--a", full_a, "--b", full_b),
           seeded=True),
        Op("conf-sft4", ("conf", sft4, "--f", "0..79", "--a", sft4_a, "--b", sft4_b), seeded=True),
        Op("chain", ("patterns", CHAIN10, "--window", "0..0"),
           expect=_ok("10 admissible patterns on 1 cells") + ({"rc": 2, "prefix": "error: "},),
           defect="SubstitutionSpec.factors scans a 220-letter prefix; letters 8 and 9 "
                  "first occur at positions 255 and 511, so 8 of 10 letters are listed",
           defect_sig={"rc": 0, "line": "8 admissible patterns on 1 cells"}),
    ]


def _stamps(rng: random.Random, seed: int) -> list:
    squares = [n * n for n in range(25)]
    choice = sorted(rng.sample(squares, 5))
    pairs = [(a, u) for a in ("0=0,1=1", "0=1,1=0", "0=0,1=0", "0=1,1=1")
             for u in ("0=0", "0=1") if (a, u) != ("0=1,1=1", "0=0")]
    alpha, u = rng.choice(pairs)
    return [
        # README examples
        Op("msep", ("maximal-separated", "Z", "--d", "ball:2", "--region=-8..8"),
           expect=_ok("syndetic in the region at radius 3")),
        Op("densify-fs", ("densify", "full_shift", "--window", "0,1", "--level", "1",
                          "--scale", "40"), emits=True,
           expect=_ok("densification: holds (claim phi-densification, scale 40)")),
        Op("scp", ("scp", "period2", "--d", "ball:1", "--u", "0=0"), emits=True,
           expect=_ok("separated covering: holds (claim scp-cover, scale 8)")),
        Op("jr-readme", ("joint-realize", "period2", "--alpha", "0=1,1=1", "--u", "0=0"),
           emits=True, expect=_ok("joint realization: holds (claim joint-realization, scale 8)")),
        Op("disjoint", ("disjoint", "period2", "golden_mean", "--window", "0..1"), emits=True,
           expect=_ok("joint window realization: holds (claim disjoint-window, scale 80)")),
        Op("shatter-readme", ("shatter", "--member", "squares", "--c", "0,4,16",
                              "--region", "0..400"), emits=True,
           expect=_ok("shattering squares: holds (claim small-set-shattering, scale 400)")),
        Op("gamma", ("gamma-densify", "finite:z2", "full_shift", "--window", "0", "--eps", "0.5",
                     "--scale", "40"), emits=True,
           expect=_ok("equivariant densification over finite:z2: holds "
                      "(claim gamma-densification, scale 40)")),
        Op("pad-free", ("pad-free", "period2", "--levels", "1", "--g", "2"), emits=True,
           expect=_ok("freeness of translation by 2: holds (claim essential-freeness, scale 4)")),
        # fixed
        Op("evens", ("shatter", "--member", "evens", "--c", "0", "--region", "0..250"),
           expect=_ok("rejected: the target set fails the smallness gate at block radius 1: "
                      "not-small", 1)),
        Op("lift-scp", ("lift-scp", "period2_or", "--d", "ball:1", "--u", "0=1"), emits=True),
        # seeded
        Op("densify-gm", ("densify", "golden_mean", "--window", "0..2", "--seed", str(seed)),
           emits=True, seeded=True),
        # densify-fs60 and jr-seed emit no certificate: their re-checks would
        # repeat densify-fs and jr-readme's and stretch the pass past the
        # length that leaves room for several passes per run.
        Op("densify-fs60", ("densify", "full_shift", "--window", "0..2", "--level", "1",
                            "--scale", "60", "--seed", str(seed)), seeded=True),
        Op("shatter-sq", ("shatter", "--member", "squares", "--c", ",".join(map(str, choice)),
                          "--region", "0..600"), emits=True, seeded=True),
        Op("jr-seed", ("joint-realize", "period2", "--alpha", alpha, "--u", u), seeded=True),
    ]


def _local_engine(rng: random.Random) -> list:
    two_a = _z2_two_cell(rng, "domino_a")
    two_b = _z2_two_cell(rng, "domino_b")
    return [
        Op("hs-patterns", ("patterns", HARD_SQUARE, "--window", "ball:2", "--sem", "local:1"),
           expect=_ok("689 admissible patterns on 13 cells")),
        # not emitted: its re-check would double the pass for no new layer
        Op("hs-irreducible", ("irreducible", HARD_SQUARE, "--d", "ball:1", "--scale", "3",
                              "--sem", "local:1"), expect=_gluing("hard_square", 3)),
        Op("f2-irreducible", ("irreducible", F2_HARD, "--d", "ball:1", "--scale", "2",
                              "--sem", "local:1"), emits=True, expect=_gluing("f2_hard", 2)),
        Op("hs-conf", ("conf", HARD_SQUARE, "--f", "ball:3", "--a", "0:0=1", "--b", "3:0=1",
                       "--sem", "local:1")),
        Op("cb-minimal", ("minimal-check", CHECKERBOARD, "--probe", "ball:1", "--window",
                          "ball:2", "--sem", "local:1"),
           expect=_ok("window-minimal: 2 windows each visit all probe patterns")),
        Op("p2-minimal", ("minimal-check", "period2", "--probe", "0..1", "--window", "0..5",
                          "--sem", "local:2"),
           expect=_ok("window-minimal: 2 windows each visit all probe patterns")),
        Op("cyl-z2", ("cylinder-point", "Z^2", "--u", "0:0=1")),
        Op("cyl-f2", ("cylinder-point", "F2", "--u", "=1"),
           expect=({"rc": [1, 2], "prefix": "error: "}, {"rc": [1, 2], "prefix": "rejected: "}),
           defect="minimal_point_in_cylinder raises TypeError on F2 and the CLI does not map "
                  "it to a typed error, so the command dies with a traceback",
           defect_sig={"rc": 1, "traceback": True,
                       "line": "TypeError: minimal_point_in_cylinder needs a lattice or "
                               "finite group context"}),
        # seeded
        Op("domino-a-patterns", ("patterns", two_a, "--window", "ball:2", "--sem", "local:1"),
           seeded=True),
        Op("domino-a-irreducible", ("irreducible", two_a, "--d", "ball:1", "--scale", "2",
                                    "--sem", "local:1"), emits=True, seeded=True),
        Op("domino-b-irreducible", ("irreducible", two_b, "--d", "ball:1", "--scale", "2",
                                    "--sem", "local:1"), emits=True, seeded=True),
    ]


def build(workload: str, seed: int) -> list:
    """The ops of one pass of ``workload`` for ``seed``, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "gluing-z":
        ops = _gluing_z(rng)
    elif workload == "stamps":
        ops = _stamps(rng, seed)
    elif workload == "local-engine":
        ops = _local_engine(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    ids = [op.id for op in ops]
    assert len(ids) == len(set(ids)), "op ids must be unique"
    return ops


def expectations(workload: str, seed: int, ops: list) -> dict:
    """Applicable expectations per op id: hand-written, else recorded.

    A recorded expectation applies when its op is not seeded or the seed is
    ``DEFAULT_SEED``, and only if the recorded argv is the op's argv.
    """
    # {workload: {op id: {"argv": [...], "rc": n, "line": s}}}
    recorded = json.loads(EXPECTED_FILE.read_text()).get(workload, {})
    out = {}
    for op in ops:
        if op.expect:
            out[op.id] = op.expect
            continue
        rec = recorded.get(op.id)
        if rec is None or (op.seeded and seed != DEFAULT_SEED):
            continue
        if rec["argv"] != op.full_argv():
            raise ValueError(f"{workload}/{op.id}: recorded argv is stale; re-run record.py")
        out[op.id] = ({"rc": rec["rc"], "line": rec["line"]},)
    return out

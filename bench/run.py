"""symdyn benchmark: cold-CLI claim, verify and set-up times per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/symdyn`` must exist).  This
process runs the workload's ops one at a time, each in a fresh
interpreter (``bench/worker.py``), so every command starts with the
library's module-level caches cold, as a ``symdyn`` CLI process does: a
closed loop with one client.  After the claim commands, one ``symdyn
verify`` re-derives every certificate the pass emitted.  That is a pass.

``--trace 0`` repeats passes while ``--seconds`` allows (at least one) and
reports the ``end_to_end`` metrics of ``BENCHMARK.json`` (``run_metrics``).  ``--trace 1`` runs one untraced pass, then one pass with every
public symdyn function wrapped in spans (``bench/tracing.py``), checks that
both passes printed the same output and certificates, and reports the
``per_layer`` metrics.

Every op is checked by the oracle in ``bench/workloads.py``.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (environment, ``src/`` line count, per-op
outcomes, the whole self-time table) goes to
``.bench_results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKER = Path(__file__).with_name("worker.py")
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
OP_TIMEOUT_S = 60.0  # per op; a timed-out op is recorded and counts as failed
TRACE_SLOWDOWN = 3.0  # traced ops get this multiple of the cap
RUN_LIMIT_S = 165.0  # no op starts past this; the run must end within 180 s


@dataclass
class OpResult:
    op_id: str
    status: str  # "ok", "known" (a recorded defect) or "failed"
    detail: str = ""
    rc: int | None = None
    line: str = ""
    stdout: str = ""
    claim_s: float = 0.0
    setup_s: float | None = None
    rss_mb: float | None = None
    cert_digest: str | None = None
    layers: dict | None = None


@dataclass
class PassResult:
    ops: list = field(default_factory=list)  # claim ops, in run order
    verify: OpResult | None = None
    certs: list = field(default_factory=list)  # (cert, status, detail)
    wall_s: float = 0.0

    @property
    def claim_s(self) -> float:
        return sum(r.claim_s for r in self.ops)

    @property
    def processes(self) -> list:
        return [r for r in [*self.ops, self.verify] if r is not None]

    @property
    def attempted(self) -> int:
        return len(self.ops) + len(self.certs)

    @property
    def failed(self) -> int:
        return sum(r.status != "ok" for r in self.ops) + sum(
            s != "ok" for _, s, _ in self.certs
        )

    def unexpected(self) -> list:
        bad = [f"{r.op_id}: {r.detail}" for r in self.ops if r.status == "failed"]
        bad += [f"verify {c}: {d}" for c, s, d in self.certs if s == "failed"]
        return bad


def verdict_line(stdout: str, stderr: str) -> str:
    lines = [ln for ln in (stdout + "\n" + stderr).splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def matches(expect: dict, rc, line: str, crashed: bool) -> bool:
    want_rc = expect["rc"]
    if rc not in (want_rc if isinstance(want_rc, list) else [want_rc]):
        return False
    if expect.get("traceback", False) != crashed:
        return False
    if "line" in expect:
        return line == expect["line"]
    return line.startswith(expect.get("prefix", ""))


def run_worker(argv: list, cwd: Path, trace: bool, timeout: float):
    """(report dict or None, wall seconds, error text)."""
    env = dict(os.environ, TMPDIR=str(cwd / "tmp"))
    cmd = [sys.executable, str(WORKER), str(SRC), "1" if trace else "0", *argv]
    t0 = time.perf_counter()
    if timeout <= 0:
        return None, 0.0, "timeout (run limit reached before the op started)"
    try:
        proc = subprocess.run(
            cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, f"timeout after {timeout:.0f} s"
    wall = time.perf_counter() - t0
    last = proc.stdout.strip().splitlines()[-1:] if proc.stdout.strip() else []
    try:
        return json.loads(last[0]), wall, ""
    except (IndexError, json.JSONDecodeError):
        return None, wall, f"worker exit {proc.returncode}: {proc.stderr.strip()[-400:]}"


def run_op(op, expect, cwd: Path, trace: bool, deadline: float) -> OpResult:
    cap = OP_TIMEOUT_S * (TRACE_SLOWDOWN if trace else 1.0)
    report, wall, error = run_worker(
        op.full_argv(), cwd, trace, min(cap, deadline - time.monotonic())
    )
    if report is None:
        return OpResult(op.id, "failed", error, claim_s=wall)
    res = OpResult(
        op.id, "ok", rc=report["rc"], stdout=report["stdout"],
        line=verdict_line(report["stdout"], report["stderr"]),
        claim_s=report["claim_s"], setup_s=report["setup_s"],
        rss_mb=report["rss_mb"], layers=report["layers"],
    )
    cert = cwd / op.cert if op.emits else None
    if cert is not None and cert.exists():
        res.cert_digest = hashlib.sha256(cert.read_bytes()).hexdigest()
    crashed = report["traceback"]
    if expect:
        good = any(matches(e, res.rc, res.line, crashed) for e in expect)
    else:  # crash check only
        good = not crashed and res.rc in (0, 1)
    if good:
        return res
    got = f"rc={res.rc} {'traceback ' if crashed else ''}{res.line[:200]!r}"
    if op.defect and matches(op.defect_sig, res.rc, res.line, crashed):
        res.status, res.detail = "known", f"known defect ({op.defect}); got {got}"
    else:
        want = list(expect) if expect else "exit 0 or 1 without a traceback"
        res.status, res.detail = "failed", f"got {got}; expected {want}"
    return res


def run_pass(ops, expects, cwd: Path, trace: bool, deadline: float) -> PassResult:
    cwd.mkdir(parents=True)
    (cwd / "tmp").mkdir()
    t0 = time.perf_counter()
    result = PassResult()
    for op in ops:
        result.ops.append(run_op(op, expects.get(op.id), cwd, trace, deadline))
    certs = [op.cert for op in ops if op.emits and (cwd / op.cert).exists()]
    if certs:
        verify = workloads.Op("verify", ("verify", *certs))
        res = run_op(verify, None, cwd, trace, deadline)
        result.verify = res
        lines = {}
        for ln in res.stdout.splitlines():
            name, sep, rest = ln.partition(": ")
            if sep:
                lines[name] = rest
        for cert in certs:
            rest = lines.get(cert)
            if rest is not None and rest.startswith("ok - reproduced byte-identically"):
                result.certs.append((cert, "ok", ""))
            else:
                detail = res.detail or rest or "no verify line"
                result.certs.append((cert, "failed", detail))
    result.wall_s = time.perf_counter() - t0
    return result


def compare_to_first(first: PassResult, later: PassResult) -> list:
    """Fail ops of ``later`` whose stdout or certificate bytes differ from
    the first pass; return their ids."""
    diverged = []
    for a, b in zip(first.ops, later.ops):
        if b.status != "ok" or a.status != "ok":
            continue
        if (a.stdout, a.cert_digest) != (b.stdout, b.cert_digest):
            b.status = "failed"
            b.detail = "stdout or certificate differs from the first pass"
            diverged.append(b.op_id)
    return diverged


def run_metrics(passes: list) -> dict:
    """The end-to-end metrics of an untraced run.

    Times are the best of the run's passes (per op for ``claim_s``): the
    ops are deterministic CPU-bound work, so other tenants of a shared host
    can only add time.  ``setup_s`` has one sample per process and takes
    their median.
    """
    per_op = zip(*(p.ops for p in passes))
    verifies = [p.verify.claim_s for p in passes if p.verify is not None]
    return {
        "setup_s": statistics.median(
            r.setup_s for p in passes for r in p.processes if r.setup_s is not None
        ),
        "claim_s": sum(min(r.claim_s for r in rs) for rs in per_op),
        "verify_s": min(verifies) if verifies else 0.0,
        "peak_rss_mb": statistics.median(
            max(r.rss_mb for r in p.processes if r.rss_mb is not None) for p in passes
        ),
    }


def merge_layers(results: list) -> dict:
    merged: dict = defaultdict(lambda: defaultdict(float))
    for r in results:
        for name, row in (r.layers or {}).items():
            for key, value in row.items():
                merged[name][key] += value
    return {name: dict(row) for name, row in merged.items()}


def layer_value(metric: str, table: dict, overhead_s: float) -> float:
    """``<module>.<function>.<stat>`` read off the merged span table."""
    if metric == "trace.overhead_s":
        return overhead_s
    func, _, stat = metric.rpartition(".")
    row = table.get(func, {})
    calls = row.get("calls", 0)
    if stat == "hit_ratio":
        proj = table.get(f"{func}.projected", {})
        return proj["patterns"] / proj["fills"] if proj.get("fills") else 0.0
    if stat in ("apart_ratio", "covered_ratio"):
        return row.get(stat[: -len("_ratio")], 0) / calls if calls else 0.0
    return float(row.get(stat, 0))


def environment() -> dict:
    cpu = platform.processor() or ""
    try:
        for ln in Path("/proc/cpuinfo").read_text().splitlines():
            if ln.startswith("model name"):
                cpu = ln.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_lines": src_lines,
    }


def op_record(r: OpResult) -> dict:
    return {
        "status": r.status, "detail": r.detail, "rc": r.rc, "line": r.line[:300],
        "claim_s": r.claim_s, "setup_s": r.setup_s, "rss_mb": r.rss_mb,
        "cert_sha256": r.cert_digest,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "symdyn" / "__init__.py").is_file():
        print(f"no symdyn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    ops = workloads.build(args.workload, args.seed)
    expects = workloads.expectations(args.workload, args.seed, ops)
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    passes: list = []
    try:
        if args.trace:
            passes.append(run_pass(ops, expects, work / "untraced", False, deadline))
            passes.append(run_pass(ops, expects, work / "traced", True, deadline))
        else:
            while True:
                passes.append(run_pass(ops, expects, work / f"pass{len(passes)}",
                                       False, deadline))
                elapsed = time.monotonic() - start
                if elapsed + passes[-1].wall_s > min(args.seconds, RUN_LIMIT_S):
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    diverged = [i for later in passes[1:] for i in compare_to_first(passes[0], later)]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    unexpected = sorted({msg for p in passes for msg in p.unexpected()})
    if any(p.processes and all(r.setup_s is None for r in p.processes) for p in passes):
        print("no worker process reported; symdyn could not be run", file=sys.stderr)
        for p in passes:
            for r in p.ops[:1]:
                print(f"  {r.op_id}: {r.detail}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "why": workloads.WHY[args.workload], "environment": environment(),
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "unexpected": unexpected,
        "ops": {r.op_id: op_record(r) for r in passes[-1].ops},
        "certs": {c: s for c, s, _ in passes[-1].certs},
    }
    if args.trace:
        untraced, traced = passes
        table = merge_layers(traced.processes)
        overhead = traced.claim_s - untraced.claim_s
        wanted = spec["per_layer"]
        values = {m["name"]: layer_value(m["name"], table, overhead) for m in wanted}
        record["self_time"] = dict(
            sorted(table.items(), key=lambda kv: -kv[1].get("self_s", 0.0))
        )
        record["untraced_claim_s"] = untraced.claim_s
        record["traced_claim_s"] = traced.claim_s
        record["transparent"] = not diverged
    else:
        wanted = spec["end_to_end"]
        values = run_metrics(passes)
        values["ok_ratio"] = (attempted - failed) / attempted
        record["fail_ratio"] = failed / attempted
        record["per_pass"] = [
            {"claim_s": p.claim_s, "verify_s": p.verify.claim_s if p.verify else None,
             "wall_s": p.wall_s, "ops": {r.op_id: r.claim_s for r in p.ops}}
            for p in passes
        ]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops {attempted}  failed {failed}  ({record['environment']['cpu']})")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:12.4f} {m['unit']}")
    if not args.trace:
        print(f"  {'fail_ratio':40s} {record['fail_ratio']:12.4f} ratio")
    for r in passes[-1].ops:
        if r.status != "ok":
            print(f"  {r.status}: {r.op_id}: {r.detail}")
    for msg in unexpected:
        print(f"  UNEXPECTED {msg}")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not unexpected, "attempted": attempted,
        "failed": failed, "metrics": metrics,
    }))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds subprocess.run, which kills its child


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())

"""Record expected verdicts at the default seed into ``bench/expected.json``.

    python3 bench/record.py

Runs one untraced pass of every workload at ``workloads.DEFAULT_SEED`` and
stores exit code and verdict line for each op that has no hand-written
expectation (README transcripts and known defects keep theirs).  An op
that crashes, times out or exits with a usage error is not recorded and
the script fails: expectations are only taken from sound runs.  Re-run it
only when a workload's ops change, and review the diff of the file.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    recorded = {}
    problems = []
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, workloads.DEFAULT_SEED)
        work = run.WORK_DIR / f"record-{name}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            result = run.run_pass(ops, {}, work, False, time.monotonic() + 600)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        recorded[name] = {}
        for op, res in zip(ops, result.ops):
            if op.expect:
                continue
            if res.status != "ok":
                problems.append(f"{name}/{op.id}: {res.detail}")
                continue
            recorded[name][op.id] = {"argv": op.full_argv(), "rc": res.rc, "line": res.line}
    shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    workloads.EXPECTED_FILE.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {workloads.EXPECTED_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one symdyn CLI invocation in this fresh interpreter and report on it.

    python3 bench/worker.py SRC_DIR TRACE ARG...

``TRACE`` is 0 or 1.  The worker times ``import symdyn`` plus
``build_parser()`` (set-up), then ``symdyn.cli.main(ARG...)`` in-process,
the way the ``symdyn`` entry point runs it: an uncaught exception prints a
traceback and exits 1.  The command's stdout and stderr are captured, and
one JSON line with the timings, exit code, output, peak RSS and (traced)
per-function summary is the worker's only output.
"""

import time

T0 = time.perf_counter()  # interpreter ready

import sys  # noqa: E402


def main() -> int:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    import symdyn.cli

    symdyn.cli.build_parser()
    setup_s = time.perf_counter() - T0

    import contextlib
    import io
    import json
    import os
    import resource
    import traceback

    if os.path.dirname(os.path.abspath(symdyn.__file__)) != os.path.join(
        os.path.abspath(src), "symdyn"
    ):
        print(f"symdyn imported from {symdyn.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    crashed = False
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = symdyn.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc, crashed = 1, True
    claim_s = time.perf_counter() - t0
    report = {
        "setup_s": setup_s,
        "claim_s": claim_s,
        "rc": rc,
        "traceback": crashed,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": tracer.summary() if tracer else None,
    }
    sys.__stdout__.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of symdyn's public functions, installed from outside.

``Tracer.install()`` wraps every public module-level function of each
``symdyn`` module (plus the methods in ``METHODS``) and rebinds the wrapper
in every ``symdyn`` namespace that binds the original, so calls made
through ``from .groups import are_apart`` style imports are seen too.
Nothing in the program changes: wrappers return what the original returns.

Each call records a span ``(name, start, end, parent, invocation, item)``
in memory.  A generator function records one span per resume, so its time
is the time spent inside it, not the time its consumer holds it open.
``summary()`` turns spans into per-function totals: calls, total time,
self time (span time minus the time of its child spans) and counters.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = (
    "groups", "subshifts", "configurations", "irreducibility",
    "constructions", "scp", "certificates", "corpus", "cli",
)
# (module, class, method) -> traced name
METHODS = {
    ("groups", "GroupContext", "ball"): "groups.ball",
    ("subshifts", "TransferGraph", "feasible"): "subshifts.TransferGraph.feasible",
}
# Generators whose yields are counted but whose resumes are not timed: they
# yield one group element at a time, so a span per resume would cost more
# than the work it measures.  Their time stays with the consumer.
COUNT_ONLY = {"configurations.elements_in_order"}


def _pairs(report) -> dict:
    return {"pairs": report.pairs_checked}


# Counters read off results: name -> function(result) -> {counter: amount}.
RESULT_COUNTERS = {
    "groups.are_apart": lambda ok: {"apart": int(ok)},
    "irreducibility.check_irreducible": _pairs,
    "scp.coverage_gap": lambda gap: {"covered": int(gap is None)},
    "certificates.canonical_json": lambda text: {"bytes": len(text.encode())},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.calls: dict[int, int] = defaultdict(int)
        self.counters: dict[int, dict] = defaultdict(lambda: defaultdict(int))
        self._invocations = 0

    def _index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap_function(self, name: str, fn):
        idx = self._index(name)
        spans, stack, calls, clock = self.spans, self.stack, self.calls, time.perf_counter
        count = RESULT_COUNTERS.get(name)
        counters = self.counters[idx]

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[me] = (idx, t0, clock(), parent, -1, False)
                stack.pop()
            calls[idx] += 1
            if count is not None:
                for key, amount in count(result).items():
                    counters[key] += amount
            return result

        return functools.update_wrapper(traced, fn)

    def _wrap_generator(self, name: str, fn):
        idx = self._index(name)
        spans, stack, calls, clock = self.spans, self.stack, self.calls, time.perf_counter
        counters = self.counters[idx]
        timed = name not in COUNT_ONLY

        def drive(gen, inv):
            try:
                while True:
                    if timed:
                        parent = stack[-1] if stack else -1
                        me = len(spans)
                        spans.append(None)
                        stack.append(me)
                        t0 = clock()
                    item, done = None, False
                    try:
                        item = next(gen)
                    except StopIteration:
                        done = True
                    finally:
                        if timed:
                            spans[me] = (idx, t0, clock(), parent, inv, not done)
                            stack.pop()
                    if done:
                        return
                    counters["yielded"] += 1
                    yield item
            finally:
                gen.close()

        def traced(*args, **kwargs):
            calls[idx] += 1
            self._invocations += 1
            return drive(fn(*args, **kwargs), self._invocations)

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap and rebind; call once, after ``import symdyn.cli``."""
        namespaces = [sys.modules["symdyn"]] + [
            sys.modules[f"symdyn.{m}"] for m in MODULES
        ]
        replaced = {}
        for m in MODULES:
            module = sys.modules[f"symdyn.{m}"]
            for attr, obj in sorted(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                wrap = (
                    self._wrap_generator
                    if inspect.isgeneratorfunction(obj)
                    else self._wrap_function
                )
                replaced[id(obj)] = wrap(f"{m}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replaced:
                    setattr(ns, attr, replaced[id(obj)])
        for (m, cls_name, meth), name in METHODS.items():
            cls = getattr(sys.modules[f"symdyn.{m}"], cls_name)
            setattr(cls, meth, self._wrap_function(name, getattr(cls, meth)))

    def summary(self) -> dict:
        """``{name: {"calls", "total_s", "self_s", counters...}}``."""
        total = defaultdict(float)
        child = defaultdict(float)
        for span in self.spans:
            if span is None:  # still open: the process is exiting mid-call
                continue
            idx, t0, t1, parent = span[:4]
            total[idx] += t1 - t0
            if parent >= 0 and self.spans[parent] is not None:
                child[self.spans[parent][0]] += t1 - t0
        out = {}
        for idx, name in enumerate(self.names):
            calls = self.calls.get(idx, 0)
            if not calls:
                continue
            row = {"calls": calls, "total_s": total[idx], "self_s": total[idx] - child[idx]}
            row.update(self.counters.get(idx, {}))
            out[name] = row
        out.update(self._projection())
        return out

    def _projection(self) -> dict:
        """Fills of ``fill_completions`` consumed by ``window_patterns``
        against the distinct patterns those ``window_patterns`` yielded."""
        try:
            fill = self.names.index("subshifts.fill_completions")
            window = self.names.index("subshifts.window_patterns")
        except ValueError:
            return {}
        fills: dict[int, int] = defaultdict(int)
        yields: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span is None or not span[5]:
                continue
            if span[0] == window:
                yields[span[4]] += 1
            elif span[0] == fill and span[3] >= 0:
                parent = self.spans[span[3]]
                if parent is not None and parent[0] == window:
                    fills[parent[4]] += 1
        return {
            "subshifts.fill_completions.projected": {
                "fills": sum(fills.values()),
                "patterns": sum(yields[inv] for inv in fills),
            }
        }

"""Span tracing of the calls the benchmark makes into relayrates.

Several relayrates modules import their callees by name (``optimizer``
binds ``compile_chain``, ``batch_min_rate`` and ``rate_report``; ``sweep``
binds ``optimize_rates_over_k``, ``large_T_report`` and ``khop_dmc_rate``),
so replacing a function in its defining module alone would miss those
calls.  ``patch_everywhere`` therefore rebinds every name, in every loaded
``relayrates`` module, that refers to the original function object.

Spans are kept in memory as ``(name, start, end, parent, task)`` tuples and
written out once the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# (span name, module, function); the module is relative to ``relayrates``.
TRACED = (
    ("kernel.compile_chain", "kernel", "compile_chain"),
    ("kernel.batch_min_rate", "kernel", "batch_min_rate"),
    ("optimizer.free_to_fractions", "optimizer", "free_to_fractions"),
    ("optimizer.optimize_splits", "optimizer", "optimize_splits"),
    ("optimizer.optimize_rates_over_k", "optimizer", "optimize_rates_over_k"),
    ("gaussian.rate_report", "gaussian", "rate_report"),
    ("gaussian.failure_impact", "gaussian", "failure_impact"),
    ("asymptotics.large_T_report", "asymptotics", "large_T_report"),
    ("asymptotics.zeta", "asymptotics", "zeta"),
    ("marc.marc_optimize", "marc", "marc_optimize"),
    ("brc.brc_optimize", "brc", "brc_optimize"),
    ("discrete.build_joint", "discrete", "build_joint"),
    ("discrete.mutual_information", "discrete", "mutual_information"),
    ("discrete.khop_dmc_rate", "discrete", "khop_dmc_rate"),
    ("sweep.run_experiment", "sweep", "run_experiment"),
    ("svgplot.write_line_plot", "svgplot", "write_line_plot"),
)

FLOAT_BYTES = 8


def patch_everywhere(original, replacement) -> list:
    """Rebind every relayrates module name bound to ``original``.

    Returns the ``(module, name)`` pairs changed, for ``unpatch``.
    """
    changed = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "relayrates" or mod_name.startswith("relayrates.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                changed.append((module, name))
    return changed


def unpatch(changed, original) -> None:
    for module, name in changed:
        setattr(module, name, original)


def _kernel_counts(counters, args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    cands = args[1] if len(args) > 1 else kwargs["cands"]
    n = int(cands.shape[0])
    entries = int(problem.ent_col.size)
    counters["kernel.batch_min_rate.cands"] += n
    # one multiply-add per (candidate, carrier entry); computed from the
    # problem's shape, not measured
    counters["kernel.ops_computed"] += n * entries
    # candidate row read, one gathered value per entry, the two
    # per-receiver accumulators and the output
    counters["kernel.bytes_computed"] += n * FLOAT_BYTES * (
        problem.n_cols + entries + 2 * problem.n_receivers + 1
    )


def _optimizer_counts(counters, args, kwargs, result):
    counters["optimizer.evaluations"] += int(result.evaluations)
    counters["optimizer.incomplete"] += int(bool(result.incomplete))


def _evaluation_counter(key):
    def count(counters, args, kwargs, result):
        counters[key] += int(result.evaluations)
    return count


COUNTERS = {
    "kernel.batch_min_rate": _kernel_counts,
    "optimizer.optimize_splits": _optimizer_counts,
    "marc.marc_optimize": _evaluation_counter("marc.evaluations"),
    "brc.brc_optimize": _evaluation_counter("brc.evaluations"),
}


class Tracer:
    """Records a span around every call to a ``TRACED`` function while
    active.  Not thread-safe: the benchmark runs one task at a time."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.task = None
        self.active = False
        self._stack = []
        self._patches = []

    def _wrap(self, span_name, fn):
        count = COUNTERS.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (span_name, start, end, parent, self.task)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every ``TRACED`` function that exists in this relayrates."""
        import importlib

        for span_name, mod_name, fn_name in TRACED:
            try:
                module = importlib.import_module(f"relayrates.{mod_name}")
            except ImportError:
                continue
            fn = getattr(module, fn_name, None)
            if fn is None:
                continue
            changed = patch_everywhere(fn, self._wrap(span_name, fn))
            self._patches.append((changed, fn))

    def uninstall(self) -> None:
        for changed, fn in reversed(self._patches):
            unpatch(changed, fn)
        self._patches = []

    def layer_totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; plus the
        seconds covered by top-level spans under ``None``."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        top = 0.0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += dur - child_time[idx]
            if parent < 0:
                top += dur
        out = dict(totals)
        out[None] = top
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps([name, start, end, parent, task]) + "\n")


def span_cost(calls: int = 20000, rounds: int = 7) -> float:
    """Seconds one traced call adds to the call it wraps: the median over
    ``rounds`` of the per-call time of a traced no-op minus a bare one.

    Tracing adds a few microseconds per call, far less than two timings of
    the same task differ on a shared machine, so the benchmark reports its
    cost as spans recorded times this figure rather than as a difference of
    wall times.
    """
    probe = Tracer()
    probe.active = True

    def noop():
        return None

    traced = probe._wrap("noop", noop)
    costs = []
    for _ in range(rounds):
        probe.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        mid = time.perf_counter()
        for _ in range(calls):
            traced()
        end = time.perf_counter()
        costs.append(((end - mid) - (mid - start)) / calls)
    return statistics.median(costs)

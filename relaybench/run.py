"""End-to-end and per-layer benchmark of relayrates.

Run from the root of a checkout:

    python3 relaybench/run.py --workload chain_sweep --seed 1 --seconds 25 --trace 0

The library is imported from the checkout's ``src`` directory, never from an
installed copy.  Workloads (see ``workloads.py``) run closed loop, one task
after another in this process.  The last line printed is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's details (environment, tail percentile and sample count,
input digest).  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` each of the workload's reference cases runs untraced and then
traced, whatever ``--seconds``, and the metrics are per layer.  Exit code 2 means the benchmark could not run at
all; it then prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("chain_sweep", "wide_chain", "long_chain", "oracle_fournode")
SETUP_RUNS = 5
PROBE_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_library():
    if not (SRC / "relayrates" / "__init__.py").is_file():
        raise BenchError(f"no relayrates sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import relayrates

    if Path(relayrates.__file__).resolve().parent != (SRC / "relayrates").resolve():
        raise BenchError(f"relayrates imported from {relayrates.__file__}, not {SRC}")
    return relayrates


def work_dir() -> str:
    path = ROOT / ".bench_build" / "relaybench"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def setup_probe(name: str) -> float:
    """Fresh-process cost: import relayrates, then one warm-up call."""
    start = time.perf_counter()
    import_library()
    import workloads

    workloads.WORKLOADS[name].warmup({"work_dir": work_dir()})
    return time.perf_counter() - start


def measure_setup(name: str) -> list:
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name],
            cwd=str(ROOT), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(relayrates, seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "relayrates": getattr(relayrates, "__version__", None),
        "backend": getattr(relayrates, "BACKEND", None),
        "commit": git_commit(),
        "seed": seed,
    }


def warn_on_environment_change(env: dict) -> None:
    """A compiled-kernel run must not be compared with a python one unnoticed,
    nor a run on another core count."""
    try:
        baseline = json.loads((HERE / "baseline.json").read_text())["environment"]
    except (OSError, ValueError, KeyError):
        return
    for key in ("backend", "nproc"):
        if baseline.get(key) != env[key]:
            print(f"WARNING: {key} {env[key]!r} differs from the baseline's "
                  f"{baseline.get(key)!r}; the figures are not comparable",
                  file=sys.stderr)


def samples_beyond(n: int, pct: float) -> int:
    """Samples above the nearest-rank ``pct`` percentile of ``n``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def harrell_davis(sorted_values, pct: float) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile: a Beta-weighted mean
    of all order statistics.  Task latencies mix task shapes of very
    different cost, and a single order statistic jumps between them from run
    to run; the weighted mean moves smoothly."""
    import numpy as np

    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    q = pct / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    x = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)])
    cdf = np.concatenate([[0.0], cdf / cdf[-1], [1.0]])
    grid = np.concatenate([[0.0], x, [1.0]])
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(np.dot(weights, sorted_values))


class Runner:
    """Runs a workload's tasks and keeps what the metrics need."""

    def __init__(self, workload, seed: int, ctx: dict):
        self.w = workload
        self.seed = seed
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one(self, i: int, tracer=None):
        """Run task ``i``; returns (seconds, output, inputs), with output None
        if the task raised or failed its checks."""
        inputs = self.w.inputs(self.seed, i)
        self.attempted += 1
        if tracer is not None:
            tracer.task = i
            tracer.active = True
        start = time.perf_counter()
        try:
            output = self.w.run(inputs, self.ctx)
            elapsed = time.perf_counter() - start
        except Exception:  # a task failure is counted, the run goes on
            elapsed = time.perf_counter() - start
            self.fail(i, traceback.format_exc())
            return elapsed, None, inputs
        finally:
            if tracer is not None:
                tracer.active = False
        try:
            bad = self.w.check(inputs, output, i, self.ctx)
        except Exception:
            bad = [traceback.format_exc()]
        if bad:
            self.fail(i, "; ".join(bad))
            return elapsed, None, inputs
        return elapsed, output, inputs

    def fail(self, i, message):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"task {i}: {message}")


def end_to_end(runner: Runner, seconds: float, details: dict) -> dict:
    import workloads

    w = runner.w
    setup = measure_setup(w.name)
    w.warmup(runner.ctx)

    latencies, rates, flags, digests = [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < max(w.quality_tasks, w.min_tasks) or time.perf_counter() < deadline:
        elapsed, output, inputs = runner.one(i)
        latencies.append(elapsed)
        if i < w.quality_tasks and output is not None:
            rates += output["rates"]
            flags += output["incomplete"]
        digests.append(workloads.inputs_digest(inputs))
        i += 1

    ordered = sorted(latencies)
    details.update({
        "setup_runs_s": setup,
        "tasks": len(latencies),
        "task_tail_pct": w.tail_pct,
        "task_tail_samples_beyond": samples_beyond(len(ordered), w.tail_pct),
        "reference_s": math.fsum(latencies[:w.quality_tasks]),
        "inputs_digest": workloads.inputs_digest(digests),
    })
    return {
        "setup_s": (statistics.median(setup), "s"),
        "tasks_per_s": (len(latencies) / math.fsum(latencies), "1/s"),
        "task_p50_s": (harrell_davis(ordered, 50.0), "s"),
        "task_tail_s": (harrell_davis(ordered, w.tail_pct), "s"),
        "rate_mean_bits": (statistics.fmean(rates) if rates else 0.0, "bits"),
        "rate_min_bits": (min(rates, default=0.0), "bits"),
        # 1 where a workload returns no optimizer results
        "complete_share": (1.0 - statistics.fmean(flags) if flags else 1.0, "share"),
        "passed_share": (1.0 - runner.failed / runner.attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(runner: Runner, details: dict) -> dict:
    from tracer import Tracer, span_cost as tracer_span_cost

    w = runner.w
    w.warmup(runner.ctx)
    n = w.quality_tasks
    # Each task runs untraced, then traced: a task runs faster right after
    # itself, and tracing must not change the rates it returns.
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        for i in range(n):
            _, plain, _ = runner.one(i)
            elapsed, output, _ = runner.one(i, tracer)
            if plain is not None and output is not None and plain["rates"] != output["rates"]:
                runner.fail(i, "tracing changed the returned rates")
            traced.append(elapsed)
    finally:
        tracer.uninstall()

    traced_s = math.fsum(traced)
    span_cost = tracer_span_cost()
    totals = tracer.layer_totals()
    counters = tracer.counters

    def span(name, field="s"):
        if name in totals:
            return totals[name][field]
        return 0 if field == "calls" else 0.0

    kernel_s = span("kernel.batch_min_rate")
    cands = counters["kernel.batch_min_rate.cands"]
    metrics = {
        "kernel.batch_min_rate.s": (kernel_s, "s"),
        "kernel.batch_min_rate.calls": (span("kernel.batch_min_rate", "calls"), "count"),
        "kernel.batch_min_rate.cands": (cands, "count"),
        "kernel.meval_per_s": (cands / kernel_s / 1e6 if kernel_s > 0 else 0.0, "Meval/s"),
        "kernel.ops_computed": (counters["kernel.ops_computed"], "count"),
        "kernel.bytes_computed": (counters["kernel.bytes_computed"], "B"),
        "kernel.compile_chain.s": (span("kernel.compile_chain"), "s"),
        "kernel.compile_chain.calls": (span("kernel.compile_chain", "calls"), "count"),
        "optimizer.free_to_fractions.s": (span("optimizer.free_to_fractions"), "s"),
        "optimizer.optimize_splits.self_s": (span("optimizer.optimize_splits", "self_s"), "s"),
        "optimizer.optimize_rates_over_k.s": (span("optimizer.optimize_rates_over_k"), "s"),
        "optimizer.evaluations": (counters["optimizer.evaluations"], "count"),
        "optimizer.incomplete": (counters["optimizer.incomplete"], "count"),
        "gaussian.rate_report.s": (span("gaussian.rate_report"), "s"),
        "gaussian.rate_report.calls": (span("gaussian.rate_report", "calls"), "count"),
        "gaussian.failure_impact.s": (span("gaussian.failure_impact"), "s"),
        "asymptotics.large_T_report.s": (span("asymptotics.large_T_report"), "s"),
        "asymptotics.zeta.s": (span("asymptotics.zeta"), "s"),
        "marc.marc_optimize.s": (span("marc.marc_optimize"), "s"),
        "marc.evaluations": (counters["marc.evaluations"], "count"),
        "brc.brc_optimize.s": (span("brc.brc_optimize"), "s"),
        "brc.evaluations": (counters["brc.evaluations"], "count"),
        "discrete.build_joint.s": (span("discrete.build_joint"), "s"),
        "discrete.mutual_information.s": (span("discrete.mutual_information"), "s"),
        "discrete.mutual_information.calls": (
            span("discrete.mutual_information", "calls"), "count"),
        "discrete.khop_dmc_rate.self_s": (span("discrete.khop_dmc_rate", "self_s"), "s"),
        "sweep.run_experiment.self_s": (span("sweep.run_experiment", "self_s"), "s"),
        "svgplot.write_line_plot.s": (span("svgplot.write_line_plot"), "s"),
        "bench.traced_s": (traced_s, "s"),
        "bench.other_s": (traced_s - totals[None], "s"),
        "bench.trace_overhead_s": (len(tracer.spans) * span_cost, "s"),
    }
    spans_path = os.path.join(runner.ctx["work_dir"], f"spans_{w.name}_seed{runner.seed}.jsonl")
    tracer.write(spans_path)
    details.update({"tasks": n, "spans": len(tracer.spans), "span_cost_s": span_cost,
                    "spans_file": os.path.relpath(spans_path, ROOT)})
    return metrics


def print_layer_split(metrics: dict) -> None:
    traced = metrics["bench.traced_s"][0]
    if traced <= 0:
        return
    print("layer split of traced wall time:", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        if unit == "s" and name not in ("bench.traced_s", "bench.trace_overhead_s") and value:
            print(f"  {name:40s} {value:9.4f} s  {100 * value / traced:5.1f}%", file=sys.stderr)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="closed-loop measuring time; the workload's reference "
                             "cases always run in full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tasks", type=int, default=None,
                        help="override the workload's reference and minimum task "
                             "counts (small values for tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload)))
            return 0
        relayrates = import_library()
        import dataclasses

        import workloads

        w = workloads.WORKLOADS[args.workload]
        if args.tasks is not None:
            w = dataclasses.replace(w, quality_tasks=args.tasks, min_tasks=args.tasks)
        env = environment(relayrates, args.seed)
        warn_on_environment_change(env)
        runner = Runner(w, args.seed, {"work_dir": work_dir()})
        details = {"workload": w.name, "trace": args.trace, "environment": env}
        if args.trace:
            metrics = per_layer(runner, details)
            print_layer_split(metrics)
        else:
            metrics = end_to_end(runner, args.seconds, details)
    except (BenchError, OSError, subprocess.SubprocessError, ImportError) as exc:
        print(f"relaybench: {exc}", file=sys.stderr)
        return 2
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    details["problems"] = runner.problems
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and summarise each metric.

    python3 relaybench/collect.py --seeds 1-10 --out .bench_build/mine.json

Runs ``run.py`` once per (workload, seed) and then once traced, one run at
a time, and writes every run's result plus, per workload, each end-to-end
metric's median, quartiles (``statistics.quantiles(values, n=4)``) and
spread (the distance between the quartiles as a share of the median), and
the traced run's per-layer metrics.  Compare two such files from the same
machine to judge a change; ``BENCHMARK.json`` bounds how far a median may
worsen.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def seed_list(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def run_once(name: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    print(f"{name} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    return {"seed": seed, "wall_s": time.perf_counter() - start,
            "details": json.loads(lines[-2])["details"], "result": result}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(name, seed, args.seconds, 0) for seed in seed_list(args.seeds)]
        report.setdefault("environment", {
            k: v for k, v in runs[0]["details"]["environment"].items() if k != "seed"})
        entry = {"end_to_end": {
            metric: dict(summarise([r["result"]["metrics"][metric]["value"] for r in runs]),
                         unit=first["unit"])
            for metric, first in runs[0]["result"]["metrics"].items()
        }}
        for metric, s in entry["end_to_end"].items():
            print(f"  {name:16s} {metric:16s} median {s['median']:<12.6g} {s['unit']:6s} "
                  f"spread {100 * s['spread']:6.2f}%", file=sys.stderr)
        traced = run_once(name, runs[0]["seed"], args.seconds, 1)
        runs.append(traced)
        entry["per_layer"] = {m: v["value"] for m, v in traced["result"]["metrics"].items()}
        entry["runs"] = runs
        report["workloads"][name] = entry
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

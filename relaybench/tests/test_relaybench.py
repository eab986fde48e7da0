"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest relaybench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import relayrates  # noqa: E402
import workloads  # noqa: E402
from run import harrell_davis, samples_beyond  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
TINY_TASKS = 2
_runs = {}


def bench(name, seed, trace, fresh=False):
    """Last two stdout lines of a tiny run: (details, result)."""
    key = (name, seed, trace)
    if fresh or key not in _runs:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
             "--tasks", str(TINY_TASKS)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _runs[key] = json.loads(lines[-2])["details"], json.loads(lines[-1])
    return _runs[key]


def test_workloads_match_benchmark_json():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_run_emits_every_metric(name):
    details, result = bench(name, 3, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == TINY_TASKS
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert details["environment"]["seed"] == 3
    assert details["environment"]["backend"] == getattr(relayrates, "BACKEND", None)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_layer_metric(name):
    _, result = bench(name, 3, 1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["bench.traced_s"]["value"] > 0
    assert result["metrics"]["bench.trace_overhead_s"]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_inputs_and_rates(name):
    first_details, first = bench(name, 3, 0)
    again_details, again = bench(name, 3, 0, fresh=True)
    assert first_details["inputs_digest"] == again_details["inputs_digest"]
    for metric in ("rate_mean_bits", "rate_min_bits", "complete_share"):
        assert first["metrics"][metric] == again["metrics"][metric]


@pytest.mark.parametrize("name", NAMES)
def test_seed_draws_the_inputs_after_the_reference_cases(name):
    w = workloads.WORKLOADS[name]
    digest = workloads.inputs_digest
    ref = range(TINY_TASKS)
    seeded = range(w.quality_tasks, w.quality_tasks + TINY_TASKS)
    assert [digest(w.inputs(3, i)) for i in ref] == \
        [digest(w.inputs(4, i)) for i in ref]
    assert [digest(w.inputs(3, i)) for i in seeded] == \
        [digest(w.inputs(3, i)) for i in seeded]
    for i in seeded:
        assert digest(w.inputs(3, i)) != digest(w.inputs(4, i))


def test_layer_split_matches_workload_purpose():
    _, sweep = bench("chain_sweep", 3, 1)
    m = {k: v["value"] for k, v in sweep["metrics"].items()}
    kernel_and_map = m["kernel.batch_min_rate.s"] + m["optimizer.free_to_fractions.s"]
    assert kernel_and_map > 0.5 * m["bench.traced_s"]
    _, long = bench("long_chain", 3, 1)
    m = {k: v["value"] for k, v in long["metrics"].items()}
    assert m["kernel.batch_min_rate.calls"] == 0
    assert m["gaussian.rate_report.s"] + m["kernel.compile_chain.s"] > 0.5 * m["bench.traced_s"]


def test_tracer_sees_calls_through_names_bound_by_import():
    import relayrates.optimizer as optimizer_mod

    original = optimizer_mod.batch_min_rate
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        geom = relayrates.build_linear_geometry([1.0] * 4)
        relayrates.optimize_splits(geom, relayrates.PropagationModel(),
                                   relayrates.PowerConfig.uniform(5, 10.0), 2)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert optimizer_mod.batch_min_rate is original
    names = [s[0] for s in tracer.spans]
    top = names.index("optimizer.optimize_splits")
    kernel = [s for s in tracer.spans if s[0] == "kernel.batch_min_rate"]
    assert kernel and all(s[3] == top for s in kernel)
    assert tracer.counters["optimizer.evaluations"] == tracer.counters["kernel.batch_min_rate.cands"]
    totals = tracer.layer_totals()
    assert totals[None] == pytest.approx(totals["optimizer.optimize_splits"]["s"])


def test_percentiles():
    assert samples_beyond(40, 75.0) == 10
    assert samples_beyond(39, 75.0) == 9
    values = [float(v) for v in range(1, 42)]
    assert harrell_davis(values, 50.0) == pytest.approx(21.0, abs=1e-6)
    assert 30.0 < harrell_davis(values, 75.0) < 32.0
    assert harrell_davis([5.0] * 40, 75.0) == pytest.approx(5.0)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "relaybench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "relaybench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

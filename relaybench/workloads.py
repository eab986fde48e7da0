"""Seeded workloads for the relayrates benchmark.

Every workload is a fixed schedule of task shapes (node count, hop depth,
combining mode, task kind) that repeats; a seed draws only the values
inside each shape: spacings, powers, split fractions, relay orders, failed
relays and channel tables.  Runs with different seeds therefore do
comparable work, and task ``i`` depends only on ``(seed, i)``.

A run starts with the workload's ``quality_tasks`` reference cases, drawn
from ``REFERENCE_SEED`` whatever the run's seed, and the rate metrics come
from those alone: the rate a random chain allows varies far more from one
draw to the next than any optimizer change worth catching, so only a fixed
set of cases lets a rate loss show.  The tasks after them use the run's
seed.

A workload supplies ``make(seed, i)`` (plain data: lists, floats, numpy
arrays), ``run(inputs, ctx)`` (the timed calls into relayrates) and
``check(inputs, output, i, ctx)`` (untimed; returns a list of failures).
``run`` returns a dict with ``rates`` (the max-min rates returned, in bits
per channel use) and ``incomplete`` (one flag per optimizer result).
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import relayrates as rr

from tracer import patch_everywhere, unpatch

RATE_TOL = 1e-12
REFERENCE_SEED = 0
COHERENT = rr.CombiningMode.COHERENT


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable
    run: Callable
    check: Callable
    warmup: Callable
    quality_tasks: int   # reference cases: rate metrics and the traced run
    min_tasks: int       # every run has at least this many tasks
    tail_pct: float      # percentile reported as task_tail_s; min_tasks
                         # leaves at least ten samples above it

    def inputs(self, seed: int, i: int):
        """Task i of a run with this seed."""
        return self.make(REFERENCE_SEED if i < self.quality_tasks else seed, i)


def task_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def inputs_digest(inputs) -> str:
    """Stable hash of a task's generated inputs."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(f"array{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, dict):
            h.update(b"{")
            for key in sorted(v, key=str):
                h.update(repr(key).encode())
                feed(v[key])
            h.update(b"}")
        elif isinstance(v, (list, tuple)):
            h.update(b"[")
            for x in v:
                feed(x)
            h.update(b"]")
        else:
            h.update(repr(v).encode() + b",")

    feed(inputs)
    return h.hexdigest()


def log_uniform(rng, lo, hi) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# ----------------------------------------------------------------------
# output checks shared by the optimizer workloads


def check_optimum(res, geometry, prop, power, k, perm, mode) -> list:
    """The returned rate is the reference rate of the returned splits, and
    every split row lies on the simplex."""
    bad = []
    for idx, row in enumerate(res.splits.rows):
        if min(row) < 0.0 or abs(math.fsum(row) - 1.0) > RATE_TOL:
            bad.append(f"k={k}: split row {idx + 1} is not on the simplex")
    again = rr.rate_report(geometry, prop, power, res.splits, k, perm, mode).rate
    if not abs(again - res.rate) <= RATE_TOL:
        bad.append(f"k={k}: rate {res.rate!r} but re-evaluated {again!r}")
    return bad


def check_monotone(rates_by_k: dict) -> list:
    ks = sorted(rates_by_k)
    return [
        f"rate falls from k={a} ({rates_by_k[a]!r}) to k={b} ({rates_by_k[b]!r})"
        for a, b in zip(ks, ks[1:])
        if rates_by_k[b] < rates_by_k[a] - RATE_TOL
    ]


# ----------------------------------------------------------------------
# chain_sweep: short power sweeps through sweep.run_experiment

SWEEP_SHAPES = ((5, "coherent"), (6, "fading"), (5, "fading"), (6, "coherent"))
SWEEP_STRATEGIES = ({"k": 1}, {"k": 2}, {"k": 3}, {"omniscient": True})


def sweep_make(seed, i):
    rng = task_rng(seed, i)
    t_count, mode = SWEEP_SHAPES[i % len(SWEEP_SHAPES)]
    return {
        "scenario": "mrc",
        "mode": mode,
        "sweep": {"variable": "power", "start": 1.0, "stop": 100.0,
                  "steps": 2, "log": True},
        "strategies": [dict(s) for s in SWEEP_STRATEGIES],
        "channel": {"spacings": rng.uniform(0.5, 1.5, t_count - 1).tolist(),
                    "noise": 1.0},
    }


@contextlib.contextmanager
def capture_optimizer_calls(sink: list):
    """Record every optimize_rates_over_k call made by the library, with
    its arguments and result, for the output checks."""
    import relayrates.optimizer as optimizer_mod

    current = optimizer_mod.optimize_rates_over_k

    def recording(*args, **kwargs):
        result = current(*args, **kwargs)
        sink.append((args, kwargs, result))
        return result

    changed = patch_everywhere(current, recording)
    try:
        yield
    finally:
        unpatch(changed, current)


def sweep_paths(ctx, tag=""):
    return (os.path.join(ctx["work_dir"], f"chain_sweep{tag}.csv"),
            os.path.join(ctx["work_dir"], f"chain_sweep{tag}.svg"))


def sweep_run(inputs, ctx, tag=""):
    config = rr.validate_config(inputs)
    csv_path, svg_path = sweep_paths(ctx, tag)
    calls = []
    with capture_optimizer_calls(calls):
        rows = rr.run_experiment(config, csv_path, svg_path, jobs=1)
    rates, incomplete = [], []
    for _, _, results in calls:
        for res in results.values():
            rates.append(res.rate)
            incomplete.append(res.incomplete)
    return {"rates": rates, "incomplete": incomplete, "rows": rows, "calls": calls}


def sweep_check(inputs, output, i, ctx):
    bad = []
    csv_path, _ = sweep_paths(ctx)
    with open(csv_path, "rb") as fh:
        csv_bytes = fh.read()
    lines = csv_bytes.decode().splitlines()
    header = lines[0].split(",")
    table = [dict(zip(header, line.split(","))) for line in lines[1:]]
    if not output["calls"] or len(table) != output["rows"] or len(output["calls"]) != len(table):
        return [f"{len(table)} CSV rows for {len(output['calls'])} optimizer calls"]
    t_count = len(inputs["channel"]["spacings"]) + 1
    for row, (args, kwargs, results) in zip(table, output["calls"]):
        geometry, prop, power = args[:3]
        mode = kwargs.get("mode", COHERENT)
        for k, res in results.items():
            bad += check_optimum(res, geometry, prop, power, k, res.permutation, mode)
        bad += check_monotone({k: r.rate for k, r in results.items()})
        for s in inputs["strategies"]:
            tag = "omniscient" if s.get("omniscient") else f"k{s['k']}"
            res = results[t_count - 1 if tag == "omniscient" else s["k"]]
            if row[f"{tag}_rate_bits_per_use"] != f"{res.rate:.12g}":
                bad.append(f"CSV {tag} rate {row[f'{tag}_rate_bits_per_use']} != {res.rate!r}")
        flagged = any(r.incomplete for r in results.values())
        if row["incomplete"] != ("1" if flagged else "0"):
            bad.append("CSV incomplete column disagrees with the optimizer results")
    if i == 0:
        sweep_run(inputs, ctx, tag="_again")
        with open(sweep_paths(ctx, "_again")[0], "rb") as fh:
            if fh.read() != csv_bytes:
                bad.append("the same sweep wrote different CSV bytes")
    return bad


def sweep_warmup(ctx):
    inputs = sweep_make(0, 0)
    inputs["strategies"] = [{"k": 1}, {"k": 2}]
    inputs["channel"]["spacings"] = [1.0] * 4
    sweep_run(inputs, ctx, tag="_warmup")


# ----------------------------------------------------------------------
# wide_chain: optimize_rates_over_k on 10-20 and 40 node chains

# cheap and expensive node counts interleaved, so a partial cycle is a fair
# sample; over two cycles every node count runs in both modes
WIDE_NODE_COUNTS = (10, 14, 18, 11, 15, 19, 12, 16, 20, 13, 17, 40)
WIDE_KS = (1, 2, 3, 4)


def wide_make(seed, i):
    rng = task_rng(seed, i)
    n = len(WIDE_NODE_COUNTS)
    t_count = WIDE_NODE_COUNTS[i % n]
    return {
        "spacings": (1.0 + rng.uniform(-0.1, 0.1, t_count - 1)).tolist(),
        "power": 10.0,
        "mode": "coherent" if (i + i // n) % 2 == 0 else "fading",
    }


def wide_channel(inputs):
    t_count = len(inputs["spacings"]) + 1
    return (rr.build_linear_geometry(inputs["spacings"]), rr.PropagationModel(),
            rr.PowerConfig.uniform(t_count, inputs["power"]),
            rr.CombiningMode(inputs["mode"]))


def wide_run(inputs, ctx):
    geometry, prop, power, mode = wide_channel(inputs)
    results = rr.optimize_rates_over_k(geometry, prop, power, WIDE_KS, mode=mode)
    return {"rates": [results[k].rate for k in WIDE_KS],
            "incomplete": [results[k].incomplete for k in WIDE_KS],
            "results": results}


def wide_check(inputs, output, i, ctx):
    geometry, prop, power, mode = wide_channel(inputs)
    results = output["results"]
    bad = []
    for k, res in results.items():
        bad += check_optimum(res, geometry, prop, power, k, res.permutation, mode)
    return bad + check_monotone({k: r.rate for k, r in results.items()})


def wide_warmup(ctx):
    geometry, prop, power, mode = wide_channel(
        {"spacings": [1.0] * 5, "power": 10.0, "mode": "coherent"})
    rr.optimize_rates_over_k(geometry, prop, power, (1, 2), mode=mode)


# ----------------------------------------------------------------------
# long_chain: reference evaluation at T = 200..300 and large_T_report at 5000

# (kind, node count): one node count per kind, so each kind's tasks cost about
# the same and the latency percentiles sit among many similar tasks
LONG_SHAPES = (("failure2", 280), ("failure3", 200), ("compile", 300),
               ("large_check", 250), ("large", 5000))
LONG_POWER = 10.0
NODE_JITTER = 5


def local_shuffle(rng, t_count) -> list:
    """Relay order with about a third of neighbouring relays swapped, so hop
    distances stay short and rates stay away from zero."""
    order = list(range(1, t_count + 1))
    p = 1
    while p < t_count - 2:
        if rng.random() < 0.3:
            order[p], order[p + 1] = order[p + 1], order[p]
            p += 2
        else:
            p += 1
    return order


def random_splits(rng, t_count, k, order) -> list:
    """Split rows per node, each fraction at least half of uniform."""
    pos = {node: p for p, node in enumerate(order, start=1)}
    rows = []
    for node in range(1, t_count):
        m = min(k, t_count - pos[node])
        rows.append((0.5 * rng.dirichlet(np.ones(m)) + 0.5 / m).tolist())
    return rows


def long_make(seed, i):
    rng = task_rng(seed, i)
    kind, nominal = LONG_SHAPES[i % len(LONG_SHAPES)]
    t_count = nominal - int(rng.integers(0, 2 * NODE_JITTER + 1))
    mode = "coherent" if (i // len(LONG_SHAPES)) % 2 == 0 else "fading"
    if kind == "large":
        return {"kind": kind, "t": t_count, "power": LONG_POWER,
                "alpha": float(rng.uniform(0.2, 0.8))}
    if kind == "large_check":
        return {"kind": kind, "t": t_count, "power": LONG_POWER,
                "alpha": rng.uniform(0.2, 0.8, t_count - 2).tolist()}
    k = 2 if kind == "failure2" else 3
    order = local_shuffle(rng, t_count)
    return {"kind": kind, "t": t_count, "power": LONG_POWER, "k": k, "mode": mode,
            "spacings": (1.0 + rng.uniform(-0.1, 0.1, t_count - 1)).tolist(),
            "order": order, "splits": random_splits(rng, t_count, k, order),
            "failed": int(order[int(rng.integers(1, t_count - 1))])}


def long_channel(inputs):
    t_count = inputs["t"]
    spacings = inputs.get("spacings", [1.0] * (t_count - 1))
    return (rr.build_linear_geometry(spacings), rr.PropagationModel(),
            rr.PowerConfig.uniform(t_count, inputs["power"]))


def long_run(inputs, ctx):
    kind = inputs["kind"]
    if kind == "large":
        rep = rr.large_T_report(inputs["t"], power=inputs["power"], alpha=inputs["alpha"])
        return {"rates": [rep.min_rate], "incomplete": [], "large": rep}
    geometry, prop, power = long_channel(inputs)
    if kind == "large_check":
        large = rr.large_T_report(inputs["t"], power=inputs["power"], alpha=inputs["alpha"])
        splits = rr.SplitMatrix.two_hop(inputs["alpha"])
        ref = rr.rate_report(geometry, prop, power, splits, 2)
        return {"rates": [ref.rate], "incomplete": [], "large": large, "ref": ref}
    perm = rr.Permutation(inputs["order"])
    mode = rr.CombiningMode(inputs["mode"])
    if kind == "compile":
        problem = rr.compile_chain(geometry, prop, power, inputs["k"], perm, mode)
        return {"rates": [], "incomplete": [], "problem": problem}
    splits = rr.SplitMatrix(inputs["splits"])
    nominal = rr.rate_report(geometry, prop, power, splits, inputs["k"], perm, mode)
    failed = rr.failure_impact(geometry, prop, power, splits, inputs["k"],
                               {inputs["failed"]}, perm, mode)
    return {"rates": [nominal.rate, failed.rate], "incomplete": [],
            "nominal": nominal, "failed": failed}


def long_check(inputs, output, i, ctx):
    kind, t_count = inputs["kind"], inputs["t"]
    bad = []
    if kind in ("large", "large_check"):
        large = output["large"]
        if not (np.all(np.isfinite(large.rates)) and large.min_rate > 0.0):
            bad.append("large_T_report rates are not finite and positive")
        if large.min_rate != float(large.rates.min()):
            bad.append("large_T_report min_rate is not the minimum rate")
        if not large.bound_satisfied:
            bad.append("interior interference exceeds the 6*zeta bound")
    if kind == "large_check":
        ref = np.array([rec.rate for rec in output["ref"].records])
        gap = float(np.max(np.abs(ref - output["large"].rates)))
        if not gap <= RATE_TOL:
            bad.append(f"rate_report and large_T_report differ by {gap:.3e}")
    if kind == "compile":
        problem = output["problem"]
        lengths = rr.row_lengths(t_count, inputs["k"], rr.Permutation(inputs["order"]))
        ptr = problem.grp_ptr
        if problem.n_receivers != t_count - 1 or problem.n_cols != sum(lengths.values()):
            bad.append("compiled problem has the wrong shape")
        if ptr[0] != 0 or ptr[-1] != problem.ent_col.size or np.any(np.diff(ptr) < 1):
            bad.append("compiled group pointers are malformed")
        if problem.ent_col.size and (problem.ent_col.min() < 0
                                     or problem.ent_col.max() >= problem.n_cols):
            bad.append("compiled entry column out of range")
        if not np.all(problem.ent_const > 0.0):
            bad.append("compiled entry gains must be positive")
    if kind.startswith("failure"):
        k, order = inputs["k"], inputs["order"]
        pos = {node: p for p, node in enumerate(order, start=1)}
        pf = pos[inputs["failed"]]
        nominal, failed = output["nominal"], output["failed"]
        for before, after in zip(nominal.records, failed.records):
            if after.rate > before.rate + RATE_TOL:
                bad.append(f"node {after.node} gains rate when a relay fails")
            inside = pf - k + 1 <= pos[after.node] <= pf + 2 * k - 1
            if not inside and after != before:
                bad.append(f"node {after.node} outside the failed relay's window changed")
        if not all(math.isfinite(r.rate) and r.rate >= 0.0 for r in failed.records):
            bad.append("failure rates are not finite and non-negative")
    return bad


def long_warmup(ctx):
    t_count = 30
    geometry, prop, power = long_channel({"t": t_count, "power": 10.0})
    splits = rr.SplitMatrix.two_hop([0.5] * (t_count - 2))
    rr.rate_report(geometry, prop, power, splits, 2)
    rr.failure_impact(geometry, prop, power, splits, 2, {t_count // 2})
    rr.compile_chain(geometry, prop, power, 3, rr.Permutation.identity(t_count), COHERENT)
    rr.large_T_report(200)


# ----------------------------------------------------------------------
# oracle_fournode: discrete oracle, MARC and BRC; each task is one random
# DMC at T = 4, 5 or 6 plus one MARC and one BRC channel

ORACLE_NODE_COUNTS = (4, 5, 6)
# alphabet sizes set the oracle's cost (up to 3**10 table entries), so they
# belong to the schedule: they repeat every ORACLE_SHAPE_PERIOD tasks
ORACLE_SHAPE_PERIOD = 30


def dmc_x_map(rng, carried_sizes, x_size):
    """Channel input as a weighted sum of the carried sub-signals mod |X|."""
    grids = np.indices(carried_sizes)
    coeffs = [1] + [int(c) for c in rng.integers(1, x_size, len(carried_sizes) - 1)]
    total = sum(c * g for c, g in zip(coeffs, grids))
    return (total % x_size).astype(int)


def dmc_make(rng, sizes):
    """A random DMC in which node t mostly hears node t-1, plus node inputs
    for every k in 1..T-1.  ``sizes`` holds the input, output and
    sub-signal alphabet sizes, one row each."""
    x_sizes, y_sizes, u_sizes = ([int(v) for v in row] for row in sizes)
    n_in = len(x_sizes)
    t_count = n_in + 1
    table = np.ones(tuple(x_sizes))
    for r in range(n_in):
        eps = rng.uniform(0.1, 0.4)
        noise = rng.dirichlet(np.ones(y_sizes[r]), size=tuple(x_sizes))
        hit = np.zeros(tuple(x_sizes) + (y_sizes[r],))
        heard = np.indices(tuple(x_sizes))[r] % y_sizes[r]
        np.put_along_axis(hit, heard[..., None], 1.0, axis=-1)
        cond = (1.0 - eps) * hit + eps * noise
        table = table[..., None] * cond.reshape(
            tuple(x_sizes) + (1,) * r + (y_sizes[r],))
    u_pmfs = [(0.5 * rng.dirichlet(np.ones(s)) + 0.5 / s) for s in u_sizes]
    maps = {}
    for k in range(1, t_count):
        maps[k] = [
            dmc_x_map(rng, [u_sizes[n - 1] for n in range(node, node + min(k, t_count - node))],
                      x_sizes[node - 1])
            for node in range(1, t_count)
        ]
    return {"x_sizes": x_sizes, "y_sizes": y_sizes, "table": table,
            "u_pmfs": u_pmfs, "x_maps": maps}


def oracle_make(seed, i):
    rng = task_rng(seed, i)
    shape = np.random.default_rng([REFERENCE_SEED, i % ORACLE_SHAPE_PERIOD, 1])
    t_count = ORACLE_NODE_COUNTS[i % len(ORACLE_NODE_COUNTS)]
    inputs = dmc_make(rng, shape.integers(2, 4, (3, t_count - 1)))
    p = log_uniform(rng, 1.0, 100.0)
    inputs["marc"] = {"p1": p, "p2": p, "p3": log_uniform(rng, 1.0, 100.0),
                      "d34": float(rng.uniform(0.5, 2.0)), "eta": float(rng.uniform(2.0, 3.0))}
    inputs["source_power"] = [0.5 * p, 2.0 * p]
    inputs["brc"] = {"p1": log_uniform(rng, 1.0, 100.0), "p2": log_uniform(rng, 1.0, 100.0),
                     "d12": float(rng.uniform(0.5, 4.0)), "eta": float(rng.uniform(2.0, 3.0))}
    return inputs


def dmc_inputs(inputs, k):
    return [rr.NodeInput(pmf, xmap) for pmf, xmap in zip(inputs["u_pmfs"], inputs["x_maps"][k])]


def oracle_run(inputs, ctx):
    channel = rr.DmcChannel(inputs["x_sizes"], inputs["y_sizes"], inputs["table"])
    reports = {k: rr.khop_dmc_rate(channel, dmc_inputs(inputs, k), k)
               for k in inputs["x_maps"]}
    marc_cfg = rr.MarcConfig(**inputs["marc"])
    onehop = rr.marc_optimize(marc_cfg, "onehop", sweep_source_power=inputs["source_power"])
    omniscient = rr.marc_optimize(marc_cfg, "omniscient")
    brc = rr.brc_optimize(rr.BrcConfig(**inputs["brc"]))
    return {"rates": [rep.rate for rep in reports.values()]
                     + [onehop.sum_rate, omniscient.sum_rate, brc.common_rate],
            "incomplete": [onehop.incomplete, omniscient.incomplete, brc.incomplete],
            "channel": channel, "reports": reports,
            "onehop": onehop, "omniscient": omniscient, "brc": brc}


def check_dmc(inputs, output):
    bad = []
    reports = output["reports"]
    onehop = rr.onehop_dmc_rate(output["channel"], dmc_inputs(inputs, 1))
    if onehop.rate != reports[1].rate:
        bad.append(f"khop_dmc_rate(k=1) {reports[1].rate!r} != onehop {onehop.rate!r}")
    for k, rep in reports.items():
        for node, rate in rep.rates.items():
            cap = math.log2(inputs["y_sizes"][node - 2])
            if not -RATE_TOL <= rate <= cap + RATE_TOL:
                bad.append(f"k={k} node {node}: rate {rate!r} outside [0, {cap}]")
        if rep.rate != min(rep.rates.values()):
            bad.append(f"k={k}: reported rate is not the minimum")
    return bad


def check_search(label, best, again, ends):
    """A 1-D search result: its rate is that of its configuration and no
    worse than either end of the searched interval."""
    bad = []
    if again != best:
        bad.append(f"{label}: returned rate {best!r} but its configuration gives {again!r}")
    if best < max(ends) - RATE_TOL:
        bad.append(f"{label}: optimum {best!r} below a search endpoint {max(ends)!r}")
    return bad


def oracle_check(inputs, output, i, ctx):
    onehop, omniscient, brc = output["onehop"], output["omniscient"], output["brc"]
    return (
        check_dmc(inputs, output)
        + check_search(
            "marc onehop", onehop.sum_rate, rr.marc_onehop_sumrate(onehop.config).sum_rate,
            [rr.marc_onehop_sumrate(rr.MarcConfig(**{**inputs["marc"], "p1": p, "p2": p}))
             .sum_rate for p in inputs["source_power"]])
        + check_search(
            "marc omniscient", omniscient.sum_rate,
            rr.marc_omniscient_sumrate(omniscient.config).sum_rate,
            [rr.marc_omniscient_sumrate(rr.MarcConfig(**{**inputs["marc"], "alpha1": a, "alpha2": a}))
             .sum_rate for a in (0.0, 1.0)])
        + check_search(
            "brc", brc.common_rate, rr.brc_omniscient_common_rate(brc.config).common_rate,
            [rr.brc_omniscient_common_rate(rr.BrcConfig(**{**inputs["brc"], "alpha": a}))
             .common_rate for a in (0.0, 1.0)])
    )


def oracle_warmup(ctx):
    for i in range(len(ORACLE_NODE_COUNTS)):
        oracle_run(oracle_make(REFERENCE_SEED, i), ctx)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain_sweep",
            sweep_make, sweep_run, sweep_check, sweep_warmup,
            quality_tasks=30, min_tasks=40, tail_pct=75.0,
        ),
        Workload(
            "wide_chain",
            wide_make, wide_run, wide_check, wide_warmup,
            quality_tasks=36, min_tasks=40, tail_pct=75.0,
        ),
        Workload(
            "long_chain",
            long_make, long_run, long_check, long_warmup,
            quality_tasks=25, min_tasks=40, tail_pct=75.0,
        ),
        Workload(
            "oracle_fournode",
            oracle_make, oracle_run, oracle_check, oracle_warmup,
            quality_tasks=1200, min_tasks=1000, tail_pct=99.0,
        ),
    )
}

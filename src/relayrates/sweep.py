"""Experiment sweeps: JSON configuration, CSV emission, and SVG plots.

A sweep varies one scalar (power, a distance, the node count, or the hop
depth k) and evaluates every requested strategy at each value.  CSV output
is deterministic: identical configs produce byte-identical files.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import brc as brc_mod
from . import marc as marc_mod
from .asymptotics import large_T_report
from .channel import (ChannelValidationError, PowerConfig, PropagationModel,
                      build_linear_geometry)
from .coding import CombiningMode
from .discrete import DmcChannel, NodeInput, carried_signals, khop_dmc_rate
from .gaussian import efficiency
from .optimizer import DEFAULT_BUDGET, _check_budget, optimize_rates_over_k
from .svgplot import Series, write_line_plot

log = logging.getLogger("relayrates")

SCENARIOS = ("mrc", "marc", "brc", "large", "discrete")
SWEEP_VARIABLES = {
    "mrc": ("power", "spacing"),
    "marc": ("source_power", "d34"),
    "brc": ("d12", "source_power"),
    "large": ("node_count",),
    "discrete": ("k",),
}
INTEGER_VARIABLES = ("node_count", "k")
DEFAULT_ETA = 2.0


class ConfigError(ValueError):
    """All problems found in a config, reported together."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class SweepAxis:
    """The variable being swept and its sample points."""

    variable: str
    start: float
    stop: float
    steps: int
    log: bool = False

    def values(self) -> tuple:
        if self.log:
            pts = np.logspace(math.log10(self.start), math.log10(self.stop), self.steps)
        else:
            pts = np.linspace(self.start, self.stop, self.steps)
        if self.variable in INTEGER_VARIABLES:
            seen, out = set(), []
            for v in pts:
                i = int(round(v))
                if i not in seen:
                    seen.add(i)
                    out.append(i)
            return tuple(out)
        return tuple(float(v) for v in pts)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated sweep description, ready to run."""

    scenario: str
    sweep: SweepAxis
    strategies: tuple
    channel: dict
    budget: int = DEFAULT_BUDGET
    mode: CombiningMode = CombiningMode.COHERENT


def _number(value, kind=float):
    """``kind(value)`` for a JSON number; ``True``, ``False`` and strings
    such as ``"10"`` are none, and an ``int`` is whole: 3.0 gives 3, 2.7 is
    refused, not truncated."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return kind(value)


def _check_channel(scenario, raw, errors):
    """Validate per-scenario channel parameters; returns a cleaned dict."""
    known = {
        "mrc": {"spacings", "power", "noise", "kappa", "eta", "node_count"},
        "marc": {"p1", "p2", "p3", "n3", "n4", "d34", "kappa", "eta"},
        "brc": {"p1", "p2", "n2", "n3", "n4", "d12", "kappa", "eta"},
        # large sweeps the node count itself
        "large": {"power", "noise", "kappa", "eta", "alpha"},
        "discrete": {"input_sizes", "output_sizes", "table", "inputs"},
    }.get(scenario, set())
    out = dict(raw)
    for key in raw:
        if key not in known:
            errors.append(f"channel: unknown key {key!r} for scenario {scenario!r}")
    if scenario == "discrete":
        for key in ("input_sizes", "output_sizes", "table", "inputs"):
            if key not in raw:
                errors.append(f"channel: discrete scenario requires {key!r}")
        return out
    if "eta" not in raw:
        out["eta"] = DEFAULT_ETA
        log.info("channel.eta not given, defaulting to %s", DEFAULT_ETA)
    for key, val in out.items():
        if key == "spacings":
            if not (isinstance(val, list) and len(val) >= 2
                    and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                            and 0.0 < v < math.inf for v in val)):
                errors.append("channel.spacings must list at least 2 positive, "
                              "finite numbers")
            continue
        try:
            v = _number(val)
        except (TypeError, ValueError):
            errors.append(f"channel.{key} must be a number")
            continue
        if not math.isfinite(v):
            errors.append(f"channel.{key} must be finite")
        elif key == "eta":
            if v < 2.0:
                errors.append(
                    "channel.eta: free-space propagation requires eta >= 2 "
                    "(library callers may opt into 1 < eta < 2 explicitly)"
                )
        elif key == "node_count":
            if v < 3 or v != int(v):
                errors.append("channel.node_count must be an integer >= 3")
        elif key == "alpha":
            if not 0.0 <= v <= 1.0:
                errors.append("channel.alpha must lie in [0, 1]")
        elif key.startswith("n") or key in ("kappa", "d12", "d34"):
            if v <= 0.0:
                errors.append(f"channel.{key} must be positive")
        elif v < 0.0:
            errors.append(f"channel.{key} must be non-negative")
    return out


def _mrc_node_count(channel) -> int:
    """Node count T of an ``mrc`` chain: one more than the number of
    ``spacings`` when they are given, else ``node_count`` (default 5).

    Raises ValueError when both are given and disagree.
    """
    t = int(channel.get("node_count", 5))
    if "spacings" in channel:
        if "node_count" in channel and t != len(channel["spacings"]) + 1:
            raise ValueError(f"channel.node_count {t} disagrees with the "
                             f"{len(channel['spacings'])} spacings")
        t = len(channel["spacings"]) + 1
    return t


def _mrc_geometry(channel, t, variable, value):
    """The chain an ``mrc`` row at sweep ``value`` rates."""
    if variable == "spacing":
        spacings = [float(value)] * (t - 1)
    else:
        spacings = channel.get("spacings", [1.0] * (t - 1))
    return build_linear_geometry(spacings)


def _check_chain(channel, strategies, axis, errors):
    """An ``mrc`` chain's T is unambiguous, its geometry builds as the run
    builds it, and it admits every strategy's k."""
    try:
        t = _mrc_node_count(channel)
    except ValueError as exc:
        errors.append(str(exc))
        return
    if axis is not None:
        try:
            # distances grow with a swept spacing, so its ends bound every row
            for value in (axis.start, axis.stop):
                _mrc_geometry(channel, t, axis.variable, value)
        except ChannelValidationError as exc:
            where = "sweep" if axis.variable == "spacing" else "channel.spacings"
            errors.append(f"{where}: {exc}")
    for s in strategies:
        if s["tag"] != "omniscient" and s["k"] > t - 1:
            errors.append(f"strategies: k={s['k']} exceeds T-1 = {t - 1} "
                          f"on this {t}-node chain")


def _check_dmc(ch, axis, errors):
    """Build the discrete channel and node inputs as the run does and check
    the maps against every swept k, so the run fails only for its table
    cap."""
    try:
        channel, inputs = _dmc_from(ch)
    except KeyError as exc:
        errors.append(f"channel.inputs: every node input requires {exc}")
        return
    except (TypeError, ValueError) as exc:
        errors.append(f"channel: {exc}")
        return
    for k in axis.values() if axis is not None else ():
        try:
            carried_signals(channel, inputs, k)
        except ValueError as exc:
            errors.append(f"channel at k={k}: {exc}")


def _check_strategies(scenario, raw, errors):
    if not isinstance(raw, list) or not raw:
        errors.append("strategies: must be a non-empty list")
        return ()
    out, tags = [], set()
    for i, s in enumerate(raw):
        if not isinstance(s, dict):
            errors.append(f"strategies[{i}]: must be an object")
            continue
        if scenario in ("large", "discrete"):
            errors.append(
                f"strategies[{i}]: scenario {scenario!r} takes no strategy list entries "
                "beyond the default"
            )
            continue
        known = ("which",) if scenario in ("marc", "brc") else ("k", "omniscient")
        for key in s:
            if key not in known:
                errors.append(f"strategies[{i}]: unknown key {key!r}")
        if scenario in ("marc", "brc"):
            which = s.get("which")
            if which not in ("onehop", "omniscient"):
                errors.append(
                    f"strategies[{i}].which must be 'onehop' or 'omniscient'"
                )
                continue
            tag = which
        elif "k" in s and "omniscient" in s:
            errors.append(f"strategies[{i}]: give k or omniscient, not both")
            continue
        elif not isinstance(s.get("omniscient", False), bool):
            errors.append(f"strategies[{i}].omniscient must be true or false")
            continue
        elif s.get("omniscient"):
            tag = "omniscient"
        elif (isinstance(s.get("k"), int) and not isinstance(s["k"], bool)
              and s["k"] >= 1):
            tag = f"k{s['k']}"
        else:
            errors.append(f"strategies[{i}]: need integer k >= 1 or omniscient flag")
            continue
        if tag in tags:
            errors.append(f"strategies[{i}]: duplicate strategy {tag!r}")
            continue
        tags.add(tag)
        out.append(dict(s, tag=tag))
    return tuple(out)


def validate_config(raw) -> ExperimentConfig:
    """Parse and validate a config (JSON text or dict), collecting every
    error before raising."""
    errors = []
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"malformed JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])

    known_top = {"scenario", "sweep", "strategies", "channel", "optimizer", "mode"}
    for key in raw:
        if key not in known_top:
            errors.append(f"unknown key {key!r}")

    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        errors.append(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
        raise ConfigError(errors)

    sweep_raw = raw.get("sweep", {})
    axis = None
    n_errors = len(errors)
    if not isinstance(sweep_raw, dict):
        errors.append("sweep must be an object")
    else:
        for key in sweep_raw:
            if key not in ("variable", "start", "stop", "steps", "log"):
                errors.append(f"sweep: unknown key {key!r}")
        var = sweep_raw.get("variable")
        if var not in SWEEP_VARIABLES[scenario]:
            errors.append(
                f"sweep.variable must be one of {SWEEP_VARIABLES[scenario]} "
                f"for scenario {scenario!r}, got {var!r}"
            )
        try:
            start = _number(sweep_raw.get("start"))
            stop = _number(sweep_raw.get("stop"))
            steps = _number(sweep_raw.get("steps"), int)
            use_log = sweep_raw.get("log", False)
            if not isinstance(use_log, bool):
                errors.append("sweep.log must be true or false")
            if steps < 2:
                errors.append("sweep.steps must be at least 2")
            if not (math.isfinite(start) and math.isfinite(stop)) or start > stop:
                errors.append("sweep range must be finite with start <= stop")
            if use_log and start <= 0.0:
                errors.append("sweep: log spacing needs a positive start")
            if var == "node_count" and round(start) < 3:
                errors.append("sweep.start must be at least 3 for a node_count sweep")
            elif var in ("spacing", "d12", "d34") and start <= 0.0:
                errors.append(f"sweep.start must be positive for a {var} sweep")
            elif var in ("power", "source_power") and start < 0.0:
                errors.append(f"sweep.start must be non-negative for a {var} sweep")
            if len(errors) == n_errors:
                axis = SweepAxis(var, start, stop, steps, use_log)
        except (TypeError, ValueError):
            errors.append("sweep needs numeric start/stop and integer steps")

    if scenario in ("large", "discrete"):
        strategies = ({"tag": "default"},)
        if raw.get("strategies"):
            _check_strategies(scenario, raw["strategies"], errors)
    else:
        strategies = _check_strategies(scenario, raw.get("strategies", []), errors)

    n_errors = len(errors)
    channel = _check_channel(scenario, raw.get("channel", {}), errors)
    if scenario == "mrc" and len(errors) == n_errors:
        _check_chain(channel, strategies, axis, errors)
    if scenario == "discrete" and len(errors) == n_errors:
        _check_dmc(channel, axis, errors)

    # only the mrc scenario runs the split search, in either combining mode
    if scenario != "mrc":
        for key in ("optimizer", "mode"):
            if key in raw:
                errors.append(f"{key!r} is not read by scenario {scenario!r}; "
                              "only 'mrc' takes it")

    budget = DEFAULT_BUDGET
    if scenario == "mrc" and "optimizer" in raw:
        if not isinstance(raw["optimizer"], dict):
            errors.append("optimizer must be an object")
        else:
            # the budget is the search's one setting: each other key
            # ("tolerance", "rounds", ...) is named, and the budget still checked
            for key in raw["optimizer"]:
                if key != "budget":
                    errors.append(f"optimizer: unknown key {key!r}")
            try:
                budget = _check_budget(raw["optimizer"].get("budget", DEFAULT_BUDGET))
            except ValueError as exc:
                errors.append(f"optimizer: {exc}")

    mode = CombiningMode.COHERENT
    if scenario == "mrc" and "mode" in raw:
        try:
            mode = CombiningMode(raw["mode"])
        except ValueError:
            errors.append("mode must be 'coherent' or 'fading'")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(scenario, axis, strategies, channel, budget, mode)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


def _mrc_row(config: ExperimentConfig, value):
    ch = config.channel
    t = _mrc_node_count(ch)
    geom = _mrc_geometry(ch, t, config.sweep.variable, value)
    p = float(value) if config.sweep.variable == "power" else float(ch.get("power", 10.0))
    power = PowerConfig.uniform(t, p, float(ch.get("noise", 1.0)))
    prop = PropagationModel(kappa=float(ch.get("kappa", 1.0)), eta=float(ch["eta"]))

    ks = {}
    for s in config.strategies:
        ks[s["tag"]] = t - 1 if s["tag"] == "omniscient" else int(s["k"])
    results = optimize_rates_over_k(
        geom, prop, power, set(ks.values()), mode=config.mode, budget=config.budget
    )

    row = [(f"{config.sweep.variable}_{'m' if config.sweep.variable == 'spacing' else 'W'}",
            float(value))]
    omni_rate = None
    if "omniscient" in ks:
        omni_rate = results[ks["omniscient"]].rate
    incomplete = False
    for s in config.strategies:
        tag = s["tag"]
        res = results[ks[tag]]
        incomplete = incomplete or res.incomplete
        row.append((f"{tag}_rate_bits_per_use", res.rate))
        row.append((f"{tag}_bottleneck_node", res.report.bottleneck))
        flat = res.splits.as_flat()
        for j, frac in enumerate(flat):
            row.append((f"{tag}_split_{j}_frac", float(frac)))
        if omni_rate is not None and tag != "omniscient":
            # zero power, or 1 + SNR rounding to 1 below ~2e-16 W per unit
            # noise, makes every rate exactly 0 and the ratio 0/0
            ratio = efficiency(res.rate, omni_rate).ratio if omni_rate > 0.0 else math.nan
            row.append((f"{tag}_efficiency_ratio", ratio))
    row.append(("incomplete", incomplete))
    return row


def _fournode_config(config: ExperimentConfig, value, config_type):
    """The configuration a ``marc`` or ``brc`` row rates and the row's
    first cell: ``source_power`` sets p1 and p2, and ``d34`` or ``d12``
    sets that distance."""
    ch = {key: float(v) for key, v in config.channel.items()}
    var = config.sweep.variable
    if var == "source_power":
        ch["p1"] = ch["p2"] = float(value)
    else:
        ch[var] = float(value)
    unit = "W" if var == "source_power" else "m"
    return config_type(**ch), [(f"{var}_{unit}", float(value))]


def _marc_row(config: ExperimentConfig, value):
    cfg, row = _fournode_config(config, value, marc_mod.MarcConfig)
    incomplete = False
    for s in config.strategies:
        res = marc_mod.marc_optimize(cfg, s["which"])
        incomplete = incomplete or res.incomplete
        tag = s["tag"]
        row.append((f"{tag}_sum_rate_bits_per_use", res.sum_rate))
        row.append((f"{tag}_r3_bits_per_use", res.rates.r3))
        row.append((f"{tag}_r4_bits_per_use", res.rates.r4))
        if s["which"] == "omniscient":
            row.append((f"{tag}_alpha_frac", res.config.alpha1))
    row.append(("incomplete", incomplete))
    return row


def _brc_row(config: ExperimentConfig, value):
    cfg, row = _fournode_config(config, value, brc_mod.BrcConfig)
    incomplete = False
    for s in config.strategies:
        tag = s["tag"]
        if s["which"] == "onehop":
            rates = brc_mod.brc_onehop_common_rate(cfg)
            row.append((f"{tag}_common_rate_bits_per_use", rates.common_rate))
        else:
            res = brc_mod.brc_optimize(cfg)
            incomplete = incomplete or res.incomplete
            rates = res.rates
            row.append((f"{tag}_common_rate_bits_per_use", rates.common_rate))
            row.append((f"{tag}_alpha_frac", res.config.alpha))
        row.append((f"{tag}_r2_bits_per_use", rates.r2))
        row.append((f"{tag}_r3_bits_per_use", rates.r3))
        row.append((f"{tag}_r4_bits_per_use", rates.r4))
    row.append(("incomplete", incomplete))
    return row


def _large_row(config: ExperimentConfig, value):
    # the swept value is the node count
    rep = large_T_report(int(value),
                         **{key: float(v) for key, v in config.channel.items()})
    return [
        ("node_count", int(value)),
        ("min_rate_bits_per_use", rep.min_rate),
        ("bottleneck_node", rep.bottleneck),
        ("max_interior_interference_W", rep.max_interior_interference),
        ("interference_bound_W", rep.bound),
        ("bound_satisfied", rep.bound_satisfied),
        ("incomplete", False),
    ]


def _dmc_from(ch: dict):
    """The channel and node inputs a discrete config describes."""
    channel = DmcChannel(ch["input_sizes"], ch["output_sizes"], ch["table"])
    inputs = [NodeInput(n["u_pmf"], n["x_map"]) for n in ch["inputs"]]
    return channel, inputs


def _discrete_row(config: ExperimentConfig, value):
    channel, inputs = _dmc_from(config.channel)
    rep = khop_dmc_rate(channel, inputs, int(value))
    row = [("k", int(value)), ("rate_bits_per_use", rep.rate),
           ("bottleneck_node", rep.bottleneck)]
    for node in sorted(rep.rates):
        row.append((f"r{node}_bits_per_use", rep.rates[node]))
    row.append(("incomplete", False))
    return row


_ROW_FUNCS = {
    "mrc": _mrc_row,
    "marc": _marc_row,
    "brc": _brc_row,
    "large": _large_row,
    "discrete": _discrete_row,
}


def compute_row(config: ExperimentConfig, value):
    """One sweep row as an ordered list of (column, value) pairs."""
    return _ROW_FUNCS[config.scenario](config, value)


def _plot_columns(header):
    out = []
    for i, name in enumerate(header[1:], start=1):
        if name.endswith("rate_bits_per_use"):
            out.append((name.rsplit("_bits_per_use", 1)[0], i))
    return out


def run_experiment(
    config: ExperimentConfig,
    out_path: str,
    svg_path: str = None,
    jobs: int = 1,
) -> int:
    """Run the sweep and write the CSV (and optional SVG); returns the
    number of rows written."""
    values = config.sweep.values()
    worker = functools.partial(compute_row, config)
    if jobs and jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(worker, values))
    else:
        rows = [worker(v) for v in values]

    header = [name for name, _ in rows[0]]
    for row in rows:
        if [name for name, _ in row] != header:
            raise RuntimeError("inconsistent columns across sweep rows")

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for _, v in row))
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    if svg_path:
        xs = tuple(float(row[0][1]) for row in rows)
        series = [
            Series(label, xs, tuple(float(row[idx][1]) for row in rows))
            for label, idx in _plot_columns(header)
        ]
        write_line_plot(
            svg_path,
            series,
            xlabel=header[0],
            ylabel="rate (bits per channel use)",
            title=f"{config.scenario} sweep",
            log_x=config.sweep.log,
        )
    return len(rows)

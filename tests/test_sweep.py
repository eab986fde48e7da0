import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayrates import ConfigError, SweepAxis, run_experiment, validate_config
from relayrates.brc import BrcConfig, brc_onehop_common_rate, brc_optimize
from relayrates.cli import DEFAULT_CONFIGS, apply_override
from relayrates.marc import MarcConfig, marc_optimize


def mrc_config(**over):
    raw = {
        "scenario": "mrc",
        "sweep": {"variable": "power", "start": 1.0, "stop": 100.0,
                  "steps": 4, "log": True},
        "strategies": [{"k": 1}, {"k": 2}, {"omniscient": True}],
        "channel": {"spacings": [1.0, 1.0, 1.0, 1.0]},
        "optimizer": {"budget": 800},
    }
    raw.update(over)
    return raw


def test_axis_values_linear_log_and_integer():
    lin = SweepAxis("power", 0.0, 10.0, 5)
    assert lin.values() == (0.0, 2.5, 5.0, 7.5, 10.0)
    logax = SweepAxis("power", 1.0, 100.0, 3, log=True)
    assert logax.values() == pytest.approx((1.0, 10.0, 100.0))
    ints = SweepAxis("node_count", 10.0, 12.0, 7)
    assert ints.values() == (10, 11, 12)  # rounded and deduplicated


def test_validate_accepts_json_text_and_dict():
    cfg = validate_config(mrc_config())
    assert cfg.scenario == "mrc"
    assert [s["tag"] for s in cfg.strategies] == ["k1", "k2", "omniscient"]
    assert cfg.channel["eta"] == 2.0  # defaulted
    same = validate_config(json.dumps(mrc_config()))
    assert same.sweep == cfg.sweep


def test_validate_collects_every_error():
    raw = mrc_config(
        sweep={"variable": "bogus", "start": 5.0, "stop": 1.0, "steps": 1},
        strategies=[{"k": 0}, {"k": 2}, {"k": 2}],
        channel={"spacings": [1.0], "eta": 1.5, "mystery": 3, "noise": -1.0},
        extra_top_key=True,
    )
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    joined = "\n".join(exc.value.errors)
    assert "unknown key 'extra_top_key'" in joined
    assert "sweep.variable" in joined
    assert "steps" in joined
    assert "start <= stop" in joined
    assert "integer k >= 1" in joined
    assert "duplicate strategy 'k2'" in joined
    assert "unknown key 'mystery'" in joined
    assert "eta" in joined
    assert "channel.noise must be positive" in joined


def test_validate_rejects_bad_scenario_and_shape():
    with pytest.raises(ConfigError):
        validate_config({"scenario": "tandem"})
    with pytest.raises(ConfigError):
        validate_config("not json {")
    with pytest.raises(ConfigError):
        validate_config([1, 2, 3])


def test_eta_below_two_rejected_in_configs():
    with pytest.raises(ConfigError) as exc:
        validate_config(mrc_config(channel={"spacings": [1.0] * 4, "eta": 1.5}))
    assert any("eta >= 2" in e for e in exc.value.errors)
    # eta exactly 2 and above is fine
    validate_config(mrc_config(channel={"spacings": [1.0] * 4, "eta": 4.0}))


@pytest.mark.parametrize("field,value,message", [
    ("budget", 0, "budget must be a positive integer"),
    ("budget", -5, "budget must be a positive integer"),
    ("budget", 1.5, "budget must be an integer"),
    ("budget", True, "budget must be an integer"),
    ("budget", "many", "budget must be an integer"),
    # the grid's resolution, round count and stall tolerance are fixed: the
    # keys are refused
    ("resolution", 2.5, "unknown key 'resolution'"),
    ("rounds", 1.5, "unknown key 'rounds'"),
    ("tolerance", 0.0, "unknown key 'tolerance'"),
    ("tolerance", float("nan"), "unknown key 'tolerance'"),
    ("tolerance", float("inf"), "unknown key 'tolerance'"),
    ("tolerance", True, "unknown key 'tolerance'"),
    ("tolerance", "small", "unknown key 'tolerance'"),
])
def test_validate_rejects_invalid_optimizer_settings(field, value, message):
    with pytest.raises(ConfigError) as exc:
        validate_config(mrc_config(optimizer={"budget": 800, field: value}))
    assert any(e.startswith(f"optimizer: {message}") for e in exc.value.errors), \
        exc.value.errors


def test_validate_refuses_the_fixed_grid_keys():
    # the grid's resolution and round count are fixed: each key is named,
    # and the settings beside them are still checked
    with pytest.raises(ConfigError) as exc:
        validate_config(mrc_config(optimizer={"resolution": 21, "rounds": 3, "budget": 0}))
    assert exc.value.errors == ("optimizer: unknown key 'resolution'",
                                "optimizer: unknown key 'rounds'",
                                "optimizer: budget must be a positive integer, got 0")


# a discrete config short of its table; the other scenarios start from the
# CLI defaults
DISCRETE_WITHOUT_TABLE = {
    "scenario": "discrete",
    "sweep": {"variable": "k", "start": 1, "stop": 1, "steps": 2},
    "channel": {"input_sizes": [2, 2], "output_sizes": [2, 2],
                "inputs": [{"u_pmf": [0.5, 0.5], "x_map": [0, 1]}] * 2},
}


@pytest.mark.parametrize("scenario,overrides,message", [
    ("discrete", {}, "channel: discrete scenario requires 'table'"),
    ("marc", {"channel.p3": "loud"}, "channel.p3 must be a number"),
    ("mrc", {"channel.node_count": 2.5}, "channel.node_count must be an integer >= 3"),
    ("marc", {"channel.p3": -1.0}, "channel.p3 must be non-negative"),
    ("mrc", {"strategies.0": 1}, "strategies[0]: must be an object"),
    ("marc", {"strategies.0.which": "twohop"},
     "strategies[0].which must be 'onehop' or 'omniscient'"),
    ("large", {"strategies": [{"k": 1}]},
     "strategies[0]: scenario 'large' takes no strategy list entries beyond the default"),
    ("mrc", {"sweep": []}, "sweep must be an object"),
    ("mrc", {"sweep.bogus": 1}, "sweep: unknown key 'bogus'"),
    ("mrc", {"sweep.start": 0.0}, "sweep: log spacing needs a positive start"),
    ("marc", {"sweep.variable": "d34", "sweep.start": 0.0, "sweep.log": False},
     "sweep.start must be positive for a d34 sweep"),
    ("mrc", {"sweep.start": -1.0, "sweep.log": False},
     "sweep.start must be non-negative for a power sweep"),
    ("mrc", {"optimizer": 5}, "optimizer must be an object"),
    ("mrc", {"mode": "loud"}, "mode must be 'coherent' or 'fading'"),
    # JSON booleans are no numbers, though Python's float() and int() take them
    ("mrc", {"strategies": [{"k": True}]},
     "strategies[0]: need integer k >= 1 or omniscient flag"),
    ("mrc", {"channel.power": True}, "channel.power must be a number"),
    ("marc", {"channel.d34": False}, "channel.d34 must be a number"),
    ("mrc", {"channel.spacings": [1.0, True, 1.0, 1.0]},
     "channel.spacings must list at least 2 positive, finite numbers"),
    ("mrc", {"sweep.start": True}, "sweep needs numeric start/stop and integer steps"),
    ("mrc", {"sweep.stop": True}, "sweep needs numeric start/stop and integer steps"),
    ("mrc", {"sweep.steps": True}, "sweep needs numeric start/stop and integer steps"),
    # nor are JSON strings, though float() and int() parse them
    ("mrc", {"channel.power": "10"}, "channel.power must be a number"),
    ("mrc", {"sweep.steps": "3"}, "sweep needs numeric start/stop and integer steps"),
    # an unknown top-level key holds back none of the sweep-dependent checks
    ("mrc", {"sweeps": 1, "sweep.start": 1e-12, "sweep.variable": "spacing"},
     "sweep: off-diagonal distances must be >= 1e-09 m"),
    # a flag is a JSON boolean, not any value Python reads as true
    ("mrc", {"sweep.log": "no"}, "sweep.log must be true or false"),
    ("mrc", {"strategies": [{"k": 1}, {"omniscient": "no"}]},
     "strategies[1].omniscient must be true or false"),
    # a strategy gives one of k and omniscient, and nothing else
    ("mrc", {"strategies": [{"k": 2, "omniscient": True}]},
     "strategies[0]: give k or omniscient, not both"),
    ("mrc", {"strategies": [{"k": 1, "bogus": 3}]}, "strategies[0]: unknown key 'bogus'"),
    ("marc", {"strategies": [{"which": "onehop", "k": 3}]}, "strategies[0]: unknown key 'k'"),
])
def test_validate_reports_each_malformed_section(scenario, overrides, message):
    raw = copy.deepcopy(DISCRETE_WITHOUT_TABLE if scenario == "discrete"
                        else DEFAULT_CONFIGS[scenario])
    for dotted, value in overrides.items():
        apply_override(raw, dotted, value)
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert message in exc.value.errors


@pytest.mark.parametrize("scenario", ["marc", "brc", "large", "discrete"])
@pytest.mark.parametrize("key,value", [("mode", "fading"), ("mode", "coherent"),
                                       ("optimizer", {"budget": 5})])
def test_validate_refuses_search_keys_outside_mrc(scenario, key, value):
    # only the mrc scenario runs the split search; elsewhere these keys
    # would be accepted and ignored
    raw = copy.deepcopy(DISCRETE_WITHOUT_TABLE if scenario == "discrete"
                        else DEFAULT_CONFIGS[scenario])
    raw[key] = value
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert f"{key!r} is not read by scenario {scenario!r}; only 'mrc' takes it" \
        in exc.value.errors


def test_validate_takes_only_whole_sweep_steps():
    raw = copy.deepcopy(DEFAULT_CONFIGS["mrc"])
    apply_override(raw, "sweep.steps", 2.7)
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert exc.value.errors == ("sweep needs numeric start/stop and integer steps",)
    apply_override(raw, "sweep.steps", 3.0)
    steps = validate_config(raw).sweep.steps
    assert steps == 3 and type(steps) is int


def test_validate_accepts_integral_float_optimizer_counts():
    # JSON and --set give 1e3 as a float; it is stored as an int
    budget = validate_config(mrc_config(optimizer={"budget": 1e3})).budget
    assert budget == 1000 and type(budget) is int


def test_mrc_sweep_csv_is_deterministic_and_monotone(tmp_path):
    cfg = validate_config(mrc_config())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    n = run_experiment(cfg, str(a))
    assert n == 4
    run_experiment(cfg, str(b))
    assert a.read_bytes() == b.read_bytes()

    lines = a.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "power_W"
    k1 = header.index("k1_rate_bits_per_use")
    k2 = header.index("k2_rate_bits_per_use")
    omni = header.index("omniscient_rate_bits_per_use")
    eff = header.index("k2_efficiency_ratio")
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        assert vals[k1] <= vals[k2] <= vals[omni]
        assert vals[eff] == pytest.approx(vals[k2] / vals[omni], rel=1e-9)


@pytest.mark.parametrize("scenario", ["mrc", "marc", "brc", "large"])
def test_parallel_rows_match_serial(tmp_path, scenario):
    raw = mrc_config() if scenario == "mrc" else dict(DEFAULT_CONFIGS[scenario])
    raw["sweep"] = dict(raw["sweep"], steps=4)
    cfg = validate_config(raw)
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    run_experiment(cfg, str(serial))
    run_experiment(cfg, str(parallel), jobs=2)
    assert serial.read_bytes() == parallel.read_bytes()


@st.composite
def random_mrc_configs(draw):
    t = draw(st.integers(3, 6))
    ks = draw(st.lists(st.integers(1, t - 1), min_size=1, max_size=3, unique=True))
    strategies = [{"k": k} for k in ks]
    if draw(st.booleans()):
        strategies.append({"omniscient": True})
    return mrc_config(
        sweep={"variable": "power", "start": 1.0, "stop": 100.0,
               "steps": draw(st.integers(2, 3)), "log": True},
        strategies=strategies,
        channel={"spacings": draw(st.lists(st.floats(0.2, 3.0), min_size=t - 1,
                                           max_size=t - 1))},
        optimizer={"budget": draw(st.integers(50, 300))},
        mode=draw(st.sampled_from(["coherent", "fading"])),
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(raw=random_mrc_configs())
def test_parallel_rows_match_serial_on_random_chains(raw):
    cfg = validate_config(raw)
    with tempfile.TemporaryDirectory() as tmp:
        serial, parallel = Path(tmp, "s.csv"), Path(tmp, "p.csv")
        run_experiment(cfg, str(serial))
        run_experiment(cfg, str(parallel), jobs=2)
        assert serial.read_bytes() == parallel.read_bytes()


def test_marc_sweep_crossover_columns(tmp_path):
    raw = {
        "scenario": "marc",
        "sweep": {"variable": "d34", "start": 0.1, "stop": 2.0, "steps": 5},
        "strategies": [{"which": "onehop"}, {"which": "omniscient"}],
        "channel": {},
    }
    out = tmp_path / "marc.csv"
    run_experiment(validate_config(raw), str(out))
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    oh = header.index("onehop_sum_rate_bits_per_use")
    omni = header.index("omniscient_sum_rate_bits_per_use")
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        assert vals[omni] >= vals[oh] - 1e-9


def marc_columns(cfg):
    out = {}
    for which in ("onehop", "omniscient"):
        res = marc_optimize(cfg, which)
        out[f"{which}_sum_rate_bits_per_use"] = res.sum_rate
        out[f"{which}_r3_bits_per_use"] = res.rates.r3
        out[f"{which}_r4_bits_per_use"] = res.rates.r4
    return out


def brc_columns(cfg):
    out = {}
    for which, rates in (("onehop", brc_onehop_common_rate(cfg)),
                         ("omniscient", brc_optimize(cfg).rates)):
        for name in ("common_rate", "r2", "r3", "r4"):
            out[f"{which}_{name}_bits_per_use"] = getattr(rates, name)
    return out


FOURNODE = {
    "marc": ({"p1": 3.0, "p2": 7.0, "p3": 12.0, "d34": 1.5, "n3": 0.8},
             MarcConfig, marc_columns),
    "brc": ({"p1": 4.0, "p2": 9.0, "d12": 0.7, "n2": 1.3}, BrcConfig, brc_columns),
}


@pytest.mark.parametrize("scenario,variable", [
    ("marc", "source_power"), ("marc", "d34"), ("brc", "d12"), ("brc", "source_power"),
])
def test_fournode_rows_rate_the_config_their_variable_names(tmp_path, scenario, variable):
    channel, config_type, columns = FOURNODE[scenario]
    raw = {
        "scenario": scenario,
        "sweep": {"variable": variable, "start": 0.5, "stop": 20.0, "steps": 3},
        "strategies": [{"which": "onehop"}, {"which": "omniscient"}],
        "channel": channel,
    }
    cfg = validate_config(raw)
    out = tmp_path / f"{scenario}.csv"
    run_experiment(cfg, str(out))
    header, *lines = out.read_text().splitlines()
    header = header.split(",")
    assert len(lines) == 3
    for value, line in zip(cfg.sweep.values(), lines):
        # source_power sets both source powers; a distance sets only itself
        fields = {"p1": value, "p2": value} if variable == "source_power" else {variable: value}
        want = columns(config_type(**dict(channel, **fields)))
        row = dict(zip(header, line.split(",")))
        assert set(want) == {c for c in header if c.endswith("_bits_per_use")}
        for column, rate in want.items():
            assert row[column] == f"{rate:.12g}", column


def test_large_sweep_and_svg(tmp_path):
    raw = {
        "scenario": "large",
        "sweep": {"variable": "node_count", "start": 10, "stop": 50, "steps": 3},
        "channel": {"power": 10.0, "alpha": 0.5},
    }
    out, svg = tmp_path / "large.csv", tmp_path / "large.svg"
    run_experiment(validate_config(raw), str(out), str(svg))
    text = svg.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "node_count"
    assert len(lines) == 4

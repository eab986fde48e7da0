import json

import numpy as np
import pytest

from relayrates.cli import DEFAULT_CONFIGS, apply_override, main
from relayrates.sweep import ConfigError


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def discrete_config():
    # three-node noiseless binary chain: Y2 = x1, Y3 = x2
    tab = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            tab[x1, x2, x1, x2] = 1.0
    return {
        "scenario": "discrete",
        "sweep": {"variable": "k", "start": 1, "stop": 1, "steps": 2},
        "channel": {
            "input_sizes": [2, 2],
            "output_sizes": [2, 2],
            "table": tab.tolist(),
            "inputs": [
                {"u_pmf": [0.5, 0.5], "x_map": [0, 1]},
                {"u_pmf": [0.5, 0.5], "x_map": [0, 1]},
            ],
        },
    }


def test_apply_override_nested_paths():
    cfg = {"channel": {"eta": 2.0}, "strategies": [{"k": 1}]}
    apply_override(cfg, "channel.eta", 4.0)
    apply_override(cfg, "strategies.0.k", 3)
    apply_override(cfg, "sweep.steps", 7)
    assert cfg == {"channel": {"eta": 4.0}, "strategies": [{"k": 3}],
                   "sweep": {"steps": 7}}
    with pytest.raises(ConfigError):
        apply_override(cfg, "strategies.9.k", 1)
    with pytest.raises(ConfigError):
        apply_override(cfg, "strategies.x.k", 1)
    with pytest.raises(ConfigError):
        apply_override(cfg, "channel.eta.deeper", 1)


def test_default_mrc_sweep_writes_csv_and_svg(tmp_path, capsys):
    out = tmp_path / "mrc.csv"
    svg = tmp_path / "mrc.svg"
    code = main([
        "mrc", "--out", str(out), "--svg", str(svg),
        "--set", "sweep.steps=3",
        "--set", "optimizer.budget=500",
    ])
    assert code == 0
    assert "wrote 3 rows" in capsys.readouterr().out
    assert out.exists() and svg.exists()
    header = out.read_text().splitlines()[0].split(",")
    assert "k2_rate_bits_per_use" in header


@pytest.mark.parametrize("overrides", [
    ["sweep.start=1e-20", "sweep.stop=1"],
    ["sweep.start=0", "sweep.stop=1", "sweep.log=false"],
    ["channel.power=0", "sweep.variable=spacing", "sweep.start=0.5", "sweep.stop=2"],
], ids=["snr_below_rounding", "linear_from_zero", "zero_power_spacing"])
def test_mrc_writes_nan_efficiency_where_every_rate_is_zero(tmp_path, overrides):
    # zero power, or 1 + SNR rounding to 1, makes the omniscient rate
    # exactly 0 and each efficiency ratio 0/0; every other column is filled
    out = tmp_path / "mrc.csv"
    sets = [arg for item in overrides + ["sweep.steps=3", "optimizer.budget=400"]
            for arg in ("--set", item)]
    assert main(["mrc", "--out", str(out), *sets]) == 0
    header, *lines = out.read_text().splitlines()
    header = header.split(",")
    ratios = [i for i, name in enumerate(header) if name.endswith("_efficiency_ratio")]
    omni = header.index("omniscient_rate_bits_per_use")
    zero_rows = 0
    for line in lines:
        cells = line.split(",")
        zero = float(cells[omni]) == 0.0
        zero_rows += zero
        for i, cell in enumerate(cells):
            assert np.isnan(float(cell)) == (zero and i in ratios), (header[i], cell)
    assert len(ratios) == 2 and zero_rows >= 1


def test_validate_subcommand_ok_and_exit_code(tmp_path, capsys):
    cfg = {
        "scenario": "brc",
        "sweep": {"variable": "d12", "start": 0.5, "stop": 2.0, "steps": 3},
        "strategies": [{"which": "onehop"}],
        "channel": {},
    }
    path = write_json(tmp_path / "brc.json", cfg)
    assert main(["validate", "--config", path]) == 0
    assert "config OK: scenario brc" in capsys.readouterr().out


def test_validation_failure_exits_1(tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", {"scenario": "mrc",
                                              "sweep": {}, "strategies": []})
    assert main(["validate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "config error" in err


def test_scenario_subcommand_mismatch_exits_1(tmp_path, capsys):
    cfg = {
        "scenario": "brc",
        "sweep": {"variable": "d12", "start": 0.5, "stop": 2.0, "steps": 3},
        "strategies": [{"which": "onehop"}],
        "channel": {},
    }
    path = write_json(tmp_path / "brc.json", cfg)
    assert main(["marc", "--config", path]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert main(["mrc", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_a_config_that_is_not_an_object_exits_1(tmp_path, capsys):
    # refused before anything reads it as an object
    path = write_json(tmp_path / "list.json", [1, 2])
    assert main(["mrc", "--config", path]) == 1
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"


def test_discrete_requires_config(capsys):
    assert main(["discrete"]) == 1
    assert "--config is required" in capsys.readouterr().err


def test_discrete_sweep_runs(tmp_path, capsys):
    path = write_json(tmp_path / "dmc.json", discrete_config())
    out = tmp_path / "dmc.csv"
    assert main(["discrete", "--config", path, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    vals = lines[1].split(",")
    assert header[:2] == ["k", "rate_bits_per_use"]
    assert float(vals[1]) == pytest.approx(1.0, abs=1e-12)


def _double_table(config):
    config["channel"]["table"] = (2.0 * np.asarray(config["channel"]["table"])).tolist()


def _negative_symbol(config):
    config["channel"]["inputs"][1]["x_map"] = [0, -1]


def _nan_pmf(config):
    config["channel"]["inputs"][0]["u_pmf"] = [0.5, float("nan")]


def _missing_map(config):
    del config["channel"]["inputs"][0]["x_map"]


def _maps_too_narrow_for_k2(config):
    config["sweep"] = {"variable": "k", "start": 1, "stop": 2, "steps": 2}


def _k_beyond_the_chain(config):
    config["sweep"] = {"variable": "k", "start": 3, "stop": 4, "steps": 2}


def _fractional_input_size(config):
    config["channel"]["input_sizes"] = [2.5, 2]


def _zero_output_size(config):
    config["channel"]["output_sizes"] = [2, 0]


@pytest.mark.parametrize("edit", [_double_table, _negative_symbol, _nan_pmf, _missing_map,
                                  _maps_too_narrow_for_k2, _k_beyond_the_chain,
                                  _fractional_input_size, _zero_output_size])
def test_validate_rejects_the_discrete_config_the_run_rejects(tmp_path, capsys, edit):
    config = discrete_config()
    assert main(["validate", "--config", write_json(tmp_path / "ok.json", config)]) == 0
    edit(config)
    path = write_json(tmp_path / "bad.json", config)
    assert main(["validate", "--config", path]) == 1
    assert main(["discrete", "--config", path, "--out", str(tmp_path / "bad.csv")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("key,sizes,message", [
    ("input_sizes", [2.5, 2], "input alphabet size must be a positive integer, got 2.5"),
    ("output_sizes", [2, 0], "output alphabet size must be a positive integer, got 0"),
])
def test_validate_names_the_alphabet_size_it_refuses(tmp_path, capsys, key, sizes, message):
    config = discrete_config()
    config["channel"][key] = sizes
    assert main(["validate", "--config", write_json(tmp_path / "bad.json", config)]) == 1
    assert capsys.readouterr().err.strip() == f"config error: channel: {message}"


def test_runtime_error_exits_2(tmp_path, capsys):
    # a resource-capped run: the large scenario rejects huge node counts
    path = write_json(tmp_path / "large.json", {
        "scenario": "large",
        "sweep": {"variable": "node_count", "start": 9000, "stop": 9001,
                  "steps": 2},
        "channel": {"power": 10.0},
    })
    out = tmp_path / "large.csv"
    assert main(["large", "--config", path, "--out", str(out)]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_override_values_are_json_decoded(tmp_path):
    out = tmp_path / "mrc.csv"
    code = main([
        "mrc", "--out", str(out),
        "--set", "sweep.steps=2", "--set", "sweep.log=false",
        "--set", "optimizer.budget=400",
        "--set", "strategies=" + json.dumps([{"k": 1}]),
    ])
    assert code == 0
    header = out.read_text().splitlines()[0].split(",")
    assert not any(c.startswith("k2_") for c in header)


@pytest.mark.parametrize("scenario,override", [
    ("marc", "channel.d34=0"),
    ("mrc", "channel.kappa=0"),
    ("mrc", "channel.spacings=[1,-1,1,1]"),
    ("large", "channel.alpha=2"),
    ("large", "sweep.start=2"),
    ("mrc", "channel.noise=NaN"),
    ("mrc", "channel.eta=NaN"),
    ("marc", "channel.p3=NaN"),
    ("large", "channel.power=Infinity"),
    ("mrc", 'strategies=[{"k": 1}, {"k": 9}]'),
    ("mrc", "channel.node_count=7"),  # the default chain has 4 spacings
    ("large", "channel.node_count=7"),  # large sweeps the node count
])
def test_validate_rejects_what_the_run_rejects(tmp_path, capsys, scenario, override):
    path = write_json(tmp_path / f"{scenario}.json", DEFAULT_CONFIGS[scenario])
    assert main(["validate", "--config", path]) == 0
    assert main(["validate", "--config", path, "--set", override]) == 1
    assert "config error" in capsys.readouterr().err


def test_mrc_power_and_spacing_sweeps_agree_on_node_count(tmp_path):
    headers = []
    for variable in ("power", "spacing"):
        out = tmp_path / f"{variable}.csv"
        assert main([
            "mrc", "--out", str(out), "--set", 'channel={"node_count": 6}',
            "--set", f"sweep.variable={variable}", "--set", "sweep.steps=2",
            "--set", "optimizer.budget=400",
            "--set", 'strategies=[{"k": 1}, {"k": 5}]',
        ]) == 0
        headers.append(out.read_text().splitlines()[0].split(",")[1:])
    assert headers[0] == headers[1]
    # 6 nodes at k = 5: 5 + 4 + 3 + 2 + 1 split fractions
    assert "k5_split_14_frac" in headers[0] and "k5_split_15_frac" not in headers[0]


@pytest.mark.parametrize("overrides", [
    # positive spacings that put two nodes closer than the minimum distance
    ["channel.spacings=[1e-12,1,1,1]"],
    ["sweep.variable=spacing", "sweep.start=1e-12"],
    # finite spacings whose node positions overflow
    ["sweep.variable=spacing", "sweep.stop=1e308", "sweep.steps=2"],
], ids=["close_spacings", "close_spacing_sweep", "overflowing_spacing_sweep"])
def test_validate_rejects_the_chain_the_run_rejects(tmp_path, capsys, overrides):
    path = write_json(tmp_path / "mrc.json", DEFAULT_CONFIGS["mrc"])
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["validate", "--config", path, *sets]) == 1
    assert main(["mrc", "--config", path, *sets, "--out", str(tmp_path / "bad.csv")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("scenario", ["mrc", "marc", "brc", "large", "discrete"])
@pytest.mark.parametrize("override", ["mode=fading", 'optimizer={"budget": 5}'])
def test_validate_refuses_search_keys_the_run_ignores(tmp_path, capsys, scenario, override):
    # the split search's budget and combining mode reach only mrc rows
    config = discrete_config() if scenario == "discrete" else DEFAULT_CONFIGS[scenario]
    path = write_json(tmp_path / f"{scenario}.json", config)
    assert main(["validate", "--config", path]) == 0
    code = main(["validate", "--config", path, "--set", override])
    err = capsys.readouterr().err
    if scenario == "mrc":
        assert code == 0 and err == ""
    else:
        key = override.partition("=")[0]
        assert code == 1
        assert f"config error: {key!r} is not read by scenario {scenario!r}" in err

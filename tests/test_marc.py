import math
from dataclasses import replace

import numpy as np
import pytest

from relayrates import (
    ChannelValidationError,
    MarcConfig,
    OptimizerConfig,
    marc_omniscient_sumrate,
    marc_onehop_sumrate,
    marc_optimize,
)
from relayrates.marc import _omniscient_rates, _onehop_rates

from reference import reference_refine_points


def test_geometry_is_derived_from_d34():
    cfg = MarcConfig(d34=1.0)
    assert cfg.d13 == 1.0 and cfg.d23 == 1.0
    want = math.sqrt((math.sqrt(3.0) / 2.0 + 1.0) ** 2 + 0.25)
    assert cfg.d14 == pytest.approx(want)
    assert cfg.d24 == cfg.d14


@pytest.mark.parametrize("bad", [
    {"p3": math.nan}, {"p1": math.inf}, {"n4": math.nan}, {"d34": math.nan},
    {"d34": math.inf}, {"kappa": math.nan}, {"eta": math.inf},
    {"beta1": math.nan, "beta2": 0.5},
])
def test_config_rejects_non_finite(bad):
    with pytest.raises(ChannelValidationError):
        MarcConfig(**bad)


def test_config_validation():
    with pytest.raises(ChannelValidationError):
        MarcConfig(p1=-1.0)
    with pytest.raises(ChannelValidationError):
        MarcConfig(n3=0.0)
    with pytest.raises(ChannelValidationError):
        MarcConfig(beta1=0.7, beta2=0.5)
    with pytest.raises(ChannelValidationError):
        MarcConfig(alpha1=1.5)
    with pytest.raises(ChannelValidationError):
        MarcConfig(d34=0.0)


def test_onehop_relay_rate_reference_value():
    # both sources at 10 W and unit distance into the relay: (P1+P2)/N3 = 20
    rates = marc_onehop_sumrate(MarcConfig())
    assert rates.r3 == pytest.approx(0.5 * math.log2(21.0), abs=1e-12)


def test_onehop_destination_hears_sources_as_noise():
    cfg = MarcConfig()
    rates = marc_onehop_sumrate(cfg)
    interference = cfg.p1 / cfg.d14 ** 2 + cfg.p2 / cfg.d24 ** 2
    want = 0.5 * math.log2(1.0 + (cfg.p3 / cfg.d34 ** 2) / (1.0 + interference))
    assert rates.r4 == pytest.approx(want, rel=1e-12)
    assert rates.sum_rate == min(rates.r3, rates.r4)


def test_omniscient_reduces_to_onehop_at_zero_alpha():
    cfg = MarcConfig(alpha1=0.0, alpha2=0.0)
    omni = marc_omniscient_sumrate(cfg)
    oh = marc_onehop_sumrate(cfg)
    assert omni.r3 == pytest.approx(oh.r3, rel=1e-12)
    # destination decodes the sources under omniscient coding, so its rate
    # reflects their full received power instead of treating it as noise
    direct = cfg.p1 / cfg.d14 ** 2 + cfg.p2 / cfg.d24 ** 2 + cfg.p3 / cfg.d34 ** 2
    assert omni.r4 == pytest.approx(0.5 * math.log2(1.0 + direct), rel=1e-12)


def test_omniscient_never_below_onehop_after_optimization():
    rng = np.random.default_rng(0)
    opt = OptimizerConfig(rounds=4, budget=3000)
    for _ in range(200):
        cfg = MarcConfig(
            p1=float(rng.uniform(0.1, 50)), p2=float(rng.uniform(0.1, 50)),
            p3=float(rng.uniform(0.1, 50)), d34=float(rng.uniform(0.2, 3.0)),
        )
        oh = marc_onehop_sumrate(cfg).sum_rate
        best = marc_optimize(cfg, "omniscient", opt).sum_rate
        assert best >= oh - 1e-9


def test_coherent_gain_monotone_in_alpha_at_destination():
    cfg = MarcConfig()
    r4 = [
        marc_omniscient_sumrate(replace(cfg, alpha1=a, alpha2=a)).r4
        for a in np.linspace(0.0, 1.0, 11)
    ]
    assert all(r4[i] <= r4[i + 1] + 1e-12 for i in range(10))


def test_onehop_power_sweep_finds_balance_point():
    opt = OptimizerConfig(resolution=41, rounds=10, tolerance=1e-12, budget=10_000)
    res = marc_optimize(MarcConfig(), "onehop", opt, sweep_source_power=(0.1, 10.0))
    assert abs(res.rates.r3 - res.rates.r4) < 1e-6
    assert res.config.p1 == res.config.p2


def test_asymmetric_search_at_least_matches_symmetric():
    cfg = MarcConfig(p1=30.0, p2=5.0)
    opt = OptimizerConfig(rounds=3, budget=30_000)
    sym = marc_optimize(cfg, "omniscient", opt)
    asym = marc_optimize(cfg, "omniscient", opt, asymmetric=True)
    assert asym.sum_rate >= sym.sum_rate - 1e-6


def test_which_validated():
    with pytest.raises(ValueError):
        marc_optimize(MarcConfig(), "threehop")


@pytest.mark.parametrize("which,kwargs", [
    ("onehop", {}),
    ("onehop", {"sweep_source_power": (0.5, 20.0)}),
    ("omniscient", {}),
    ("omniscient", {"asymmetric": True}),
])
def test_optimum_rates_are_the_closed_form_at_its_config(which, kwargs):
    closed_form = marc_onehop_sumrate if which == "onehop" else marc_omniscient_sumrate
    rng = np.random.default_rng(11)
    opt = OptimizerConfig(rounds=3, budget=2_000)
    for _ in range(5):
        cfg = MarcConfig(p1=float(rng.uniform(0.1, 50)), p2=float(rng.uniform(0.1, 50)),
                         p3=float(rng.uniform(0.1, 50)), d34=float(rng.uniform(0.2, 3.0)))
        res = marc_optimize(cfg, which, opt, **kwargs)
        assert res.rates == closed_form(res.config)
        assert res.sum_rate == res.rates.sum_rate == min(res.rates.r3, res.rates.r4)
        c = res.config
        if "sweep_source_power" in kwargs:
            assert c.p1 == c.p2 and 0.5 <= c.p1 <= 20.0
            assert replace(c, p1=cfg.p1, p2=cfg.p2) == cfg
        elif which == "onehop":
            assert c == cfg and res.evaluations == 1
        elif kwargs:
            assert c.beta2 == 1.0 - c.beta1
            assert replace(c, alpha1=0.0, alpha2=0.0, beta1=0.5, beta2=0.5) == cfg
        else:
            assert c.alpha1 == c.alpha2 and c.beta1 == c.beta2 == 0.5
            assert replace(c, alpha1=0.0, alpha2=0.0) == cfg


def random_config(rng):
    return MarcConfig(p1=float(rng.uniform(0.1, 50)), p2=float(rng.uniform(0.1, 50)),
                      p3=float(rng.uniform(0.1, 50)), n3=float(rng.uniform(0.2, 3)),
                      n4=float(rng.uniform(0.2, 3)), d34=float(rng.uniform(0.2, 3.0)),
                      kappa=float(rng.uniform(0.5, 2)), eta=float(rng.uniform(2, 4)))


def test_array_closed_forms_equal_the_scalar_api():
    rng = np.random.default_rng(21)
    for _ in range(20):
        cfg = random_config(rng)
        p1, p2 = np.append(rng.uniform(0.0, 60.0, (2, 99)), [[0.0], [0.0]], axis=1)
        r3, r4 = _onehop_rates(cfg, p1, p2)
        want = [marc_onehop_sumrate(replace(cfg, p1=a, p2=b))
                for a, b in zip(p1.tolist(), p2.tolist())]
        assert np.array_equal(r3, [w.r3 for w in want])
        assert np.array_equal(r4, [w.r4 for w in want])

        a1, a2, b1 = np.append(rng.random((3, 98)), [[0.0, 1.0]] * 3, axis=1)
        r3, r4 = _omniscient_rates(cfg, a1, a2, b1, 1.0 - b1)
        want = [marc_omniscient_sumrate(replace(cfg, alpha1=x, alpha2=y, beta1=b, beta2=1.0 - b))
                for x, y, b in zip(a1.tolist(), a2.tolist(), b1.tolist())]
        assert np.array_equal(r3, [w.r3 for w in want])
        assert np.array_equal(r4, [w.r4 for w in want])


@pytest.mark.parametrize("search", ["onehop", "symmetric", "asymmetric"])
def test_search_equals_the_scalar_objective_search(search):
    # the searches as a per-point objective over the scalar API, one
    # configuration per candidate
    rng = np.random.default_rng(22)
    opt = OptimizerConfig(resolution=9, rounds=3, budget=5_000)
    for _ in range(4):
        cfg = random_config(rng)
        lo, hi = sorted(rng.uniform(0.1, 60.0, 2).tolist())
        if search == "onehop":
            def config_for(v):
                return replace(cfg, p1=lo + v * (hi - lo), p2=lo + v * (hi - lo))
            got = marc_optimize(cfg, "onehop", opt, sweep_source_power=(lo, hi))
            closed_form, ndim = marc_onehop_sumrate, 1
        elif search == "symmetric":
            def config_for(a):
                return replace(cfg, alpha1=a, alpha2=a, beta1=0.5, beta2=0.5)
            got = marc_optimize(cfg, "omniscient", opt)
            closed_form, ndim = marc_omniscient_sumrate, 1
        else:
            def config_for(a1, a2, b1):
                return replace(cfg, alpha1=a1, alpha2=a2, beta1=b1, beta2=1.0 - b1)
            got = marc_optimize(cfg, "omniscient", opt, asymmetric=True)
            closed_form, ndim = marc_omniscient_sumrate, 3
        best, evals, _, incomplete = reference_refine_points(
            lambda *point: closed_form(config_for(*point)).sum_rate, ndim, opt)
        assert got.config == config_for(*best)
        assert (got.evaluations, got.incomplete) == (evals, incomplete)
        assert got.rates == closed_form(got.config)


@pytest.mark.parametrize("power", [(-1.0, 10.0), (1.0, math.nan), (1.0, math.inf)])
def test_power_sweep_rejects_invalid_ends(power):
    with pytest.raises(ChannelValidationError):
        marc_optimize(MarcConfig(), "onehop", sweep_source_power=power)


def test_search_below_one_round_rates_the_midpoint(caplog):
    # a budget too small for any grid round rates the box midpoint rather
    # than return it unrated, flags the search and says so
    cfg = MarcConfig()
    with caplog.at_level("WARNING", logger="relayrates"):
        got = marc_optimize(cfg, "omniscient", OptimizerConfig(budget=1))
    assert (got.evaluations, got.incomplete) == (1, True)
    assert got.config == replace(cfg, alpha1=0.5, alpha2=0.5, beta1=0.5, beta2=0.5)
    assert got.sum_rate == marc_omniscient_sumrate(got.config).sum_rate
    assert "only the box midpoint is rated" in caplog.text

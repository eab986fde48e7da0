import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relayrates import (
    ChannelValidationError,
    MarcConfig,
    marc_omniscient_sumrate,
    marc_onehop_sumrate,
    marc_optimize,
)
from relayrates.marc import _omniscient_rates, _onehop_rates

from reference import reference_crossing


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
    for _ in range(200):
        cfg = MarcConfig(
            p1=float(rng.uniform(0.1, 50)), p2=float(rng.uniform(0.1, 50)),
            p3=float(rng.uniform(0.1, 50)), d34=float(rng.uniform(0.2, 3.0)),
        )
        oh = marc_onehop_sumrate(cfg).sum_rate
        best = marc_optimize(cfg, "omniscient").sum_rate
        assert best >= oh - 1e-9


def test_coherent_gain_monotone_in_alpha_at_destination():
    cfg = MarcConfig()
    r4 = [
        marc_omniscient_sumrate(replace(cfg, alpha1=a, alpha2=a)).r4
        for a in np.linspace(0.0, 1.0, 11)
    ]
    assert all(r4[i] <= r4[i + 1] + 1e-12 for i in range(10))


def test_onehop_power_sweep_finds_balance_point():
    res = marc_optimize(MarcConfig(), "onehop", sweep_source_power=(0.1, 10.0))
    assert abs(res.rates.r3 - res.rates.r4) < 1e-12
    assert res.config.p1 == res.config.p2


def test_which_validated():
    with pytest.raises(ValueError):
        marc_optimize(MarcConfig(), "threehop")


@pytest.mark.parametrize("which,kwargs", [
    ("onehop", {}),
    ("onehop", {"sweep_source_power": (0.5, 20.0)}),
    ("omniscient", {}),
])
def test_optimum_rates_are_the_closed_form_at_its_config(which, kwargs):
    closed_form = marc_onehop_sumrate if which == "onehop" else marc_omniscient_sumrate
    rng = np.random.default_rng(11)
    for _ in range(5):
        cfg = MarcConfig(p1=float(rng.uniform(0.1, 50)), p2=float(rng.uniform(0.1, 50)),
                         p3=float(rng.uniform(0.1, 50)), d34=float(rng.uniform(0.2, 3.0)))
        res = marc_optimize(cfg, which, **kwargs)
        assert res.rates == closed_form(res.config)
        assert res.sum_rate == res.rates.sum_rate == min(res.rates.r3, res.rates.r4)
        c = res.config
        if "sweep_source_power" in kwargs:
            assert c.p1 == c.p2 and 0.5 <= c.p1 <= 20.0
            assert replace(c, p1=cfg.p1, p2=cfg.p2) == cfg
        elif which == "onehop":
            assert c == cfg and res.evaluations == 1
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


@st.composite
def searches(draw):
    """A random configuration, P3 = 0 in one draw of eight, and a source
    power interval, ascending, reversed or of zero width."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = random_config(rng)
    if draw(st.integers(0, 7)) == 0:
        cfg = replace(cfg, p3=0.0)
    lo, hi = sorted(rng.uniform(0.1, 60.0, 2).tolist())
    shape = draw(st.sampled_from(["ascending", "reversed", "point"]))
    return cfg, {"ascending": (lo, hi), "reversed": (hi, lo), "point": (lo, lo)}[shape]


def search_of(search, cfg, power):
    """The result of one search, the map from its searched value to the
    configuration it rates, the interval of that value and the scalar
    closed form."""
    if search == "onehop":
        def config_for(p):
            return replace(cfg, p1=p, p2=p)
        return (marc_optimize(cfg, "onehop", sweep_source_power=power), config_for,
                sorted(power), marc_onehop_sumrate)

    def config_for(a):
        return replace(cfg, alpha1=a, alpha2=a, beta1=0.5, beta2=0.5)
    return marc_optimize(cfg, "omniscient"), config_for, [0.0, 1.0], marc_omniscient_sumrate


@pytest.mark.parametrize("search", ["onehop", "symmetric"])
@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(case=searches())
@example(case=(MarcConfig(p3=0.0), (0.5, 20.0)))
@example(case=(MarcConfig(), (20.0, 0.5)))
@example(case=(MarcConfig(), (3.0, 3.0)))
def test_search_equals_the_scalar_objective_search(search, case):
    # the exact search against the scalar API: its rates are the closed form
    # at its configuration, it is no worse than either end, and where the
    # two rates cross inside the interval it returns their crossing, found
    # here by bisection
    cfg, power = case
    got, config_for, (lo, hi), closed_form = search_of(search, cfg, power)
    value = got.config.p1 if search == "onehop" else got.config.alpha1
    assert got.config == config_for(value) and lo <= value <= hi
    assert got.rates == closed_form(got.config)
    assert got.sum_rate == got.rates.sum_rate
    assert (got.evaluations, got.incomplete) == (3, False)
    ends = [closed_form(config_for(end)) for end in (lo, hi)]
    assert got.sum_rate >= max(end.sum_rate for end in ends)

    def gap(x):
        rates = closed_form(config_for(x))
        return rates.r3 - rates.r4
    # at P3 = 0 the omniscient r4 is flat in alpha, so every split up to the
    # crossing is optimal and the search keeps alpha = 0, the first
    if gap(lo) * gap(hi) < 0.0 and cfg.p3 > 0.0:
        assert value == pytest.approx(reference_crossing(gap, lo, hi), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("search", ["onehop", "symmetric"])
@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(case=searches())
def test_search_is_no_worse_than_a_dense_grid(search, case):
    cfg, power = case
    got, config_for, (lo, hi), _ = search_of(search, cfg, power)
    grid = np.linspace(lo, hi, 10_000)
    if search == "onehop":
        rates = _onehop_rates(cfg, grid, grid)
    else:
        rates = _omniscient_rates(cfg, grid, grid, 0.5, 0.5)
    # the closed form's rounding against the grid's, a few ulps of the rate
    assert got.sum_rate >= float(np.max(np.minimum(*rates))) - 1e-14


@pytest.mark.parametrize("power", [(-1.0, 10.0), (1.0, math.nan), (1.0, math.inf)])
def test_power_sweep_rejects_invalid_ends(power):
    with pytest.raises(ChannelValidationError):
        marc_optimize(MarcConfig(), "onehop", sweep_source_power=power)

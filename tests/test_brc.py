import math
from dataclasses import replace

import numpy as np
import pytest

from relayrates import (
    BrcConfig,
    ChannelValidationError,
    OptimizerConfig,
    brc_omniscient_common_rate,
    brc_onehop_common_rate,
    brc_optimize,
)
from relayrates.brc import _omniscient_rates

from reference import reference_refine_points


def test_geometry_is_derived_from_d12():
    cfg = BrcConfig(d12=1.0)
    assert cfg.d23 == 1.0 and cfg.d24 == 1.0 and cfg.d34 == 1.0
    want = math.sqrt(0.25 + (math.sqrt(3.0) / 2.0 + 1.0) ** 2)
    assert cfg.d13 == pytest.approx(want)
    assert cfg.d14 == cfg.d13


@pytest.mark.parametrize("bad", [
    {"p1": math.nan}, {"p2": math.inf}, {"n2": math.nan}, {"d12": math.nan},
    {"d12": math.inf}, {"kappa": math.nan}, {"eta": math.nan},
])
def test_config_rejects_non_finite(bad):
    with pytest.raises(ChannelValidationError):
        BrcConfig(**bad)


def test_config_validation():
    with pytest.raises(ChannelValidationError):
        BrcConfig(p1=-1.0)
    with pytest.raises(ChannelValidationError):
        BrcConfig(n3=0.0)
    with pytest.raises(ChannelValidationError):
        BrcConfig(alpha=-0.1)
    with pytest.raises(ChannelValidationError):
        BrcConfig(d12=0.0)


def test_destination_rates_are_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(50):
        cfg = BrcConfig(
            p1=float(rng.uniform(0.1, 50)), p2=float(rng.uniform(0.1, 50)),
            d12=float(rng.uniform(0.2, 3.0)), alpha=float(rng.uniform(0, 1)),
        )
        oh = brc_onehop_common_rate(cfg)
        omni = brc_omniscient_common_rate(cfg)
        assert abs(oh.r3 - oh.r4) < 1e-12
        assert abs(omni.r3 - omni.r4) < 1e-12


def test_onehop_reference_values():
    cfg = BrcConfig()
    rates = brc_onehop_common_rate(cfg)
    assert rates.r2 == pytest.approx(0.5 * math.log2(11.0), abs=1e-12)
    want3 = 0.5 * math.log2(1.0 + 10.0 / (1.0 + 10.0 / cfg.d13 ** 2))
    assert rates.r3 == pytest.approx(want3, rel=1e-12)
    assert rates.common_rate == min(rates.r2, rates.r3, rates.r4)


def test_omniscient_reduces_to_onehop_relay_rate_at_zero_alpha():
    cfg = BrcConfig(alpha=0.0)
    omni = brc_omniscient_common_rate(cfg)
    oh = brc_onehop_common_rate(cfg)
    assert omni.r2 == pytest.approx(oh.r2, rel=1e-12)
    # the destinations decode the source directly, so even at alpha = 0
    # its power counts as signal rather than noise
    assert omni.r3 >= oh.r3


def test_optimized_common_rate_dominates_onehop():
    rng = np.random.default_rng(9)
    opt = OptimizerConfig(rounds=4, budget=3000)
    for _ in range(100):
        cfg = BrcConfig(
            p1=float(rng.uniform(0.1, 50)), p2=float(rng.uniform(0.1, 50)),
            d12=float(rng.uniform(0.2, 3.0)),
        )
        oh = brc_onehop_common_rate(cfg).common_rate
        best = brc_optimize(cfg, opt).common_rate
        assert best >= oh - 1e-9


def test_alpha_trades_relay_rate_for_destination_rate():
    cfg = BrcConfig()
    grid = np.linspace(0.0, 1.0, 11)
    r2 = [brc_omniscient_common_rate(replace(cfg, alpha=a)).r2 for a in grid]
    r3 = [brc_omniscient_common_rate(replace(cfg, alpha=a)).r3 for a in grid]
    assert all(r2[i] >= r2[i + 1] - 1e-12 for i in range(10))
    assert all(r3[i] <= r3[i + 1] + 1e-12 for i in range(10))


def test_optimize_matches_scalar_scan():
    cfg = BrcConfig(d12=0.6)
    res = brc_optimize(cfg, OptimizerConfig(rounds=8, tolerance=1e-12, budget=5000))
    best = max(
        brc_omniscient_common_rate(replace(cfg, alpha=float(a))).common_rate
        for a in np.linspace(0.0, 1.0, 20001)
    )
    assert res.common_rate >= best - 1e-8


def test_optimum_rates_are_the_closed_form_at_its_config():
    rng = np.random.default_rng(12)
    opt = OptimizerConfig(rounds=3, budget=2_000)
    for _ in range(10):
        cfg = BrcConfig(p1=float(rng.uniform(0.1, 50)), p2=float(rng.uniform(0.1, 50)),
                        d12=float(rng.uniform(0.2, 3.0)))
        res = brc_optimize(cfg, opt)
        assert res.rates == brc_omniscient_common_rate(res.config)
        assert res.common_rate == min(res.rates.r2, res.rates.r3, res.rates.r4)
        assert replace(res.config, alpha=0.0) == cfg


def random_config(rng):
    return BrcConfig(p1=float(rng.uniform(0.1, 50)), p2=float(rng.uniform(0.1, 50)),
                     n2=float(rng.uniform(0.2, 3)), n3=float(rng.uniform(0.2, 3)),
                     n4=float(rng.uniform(0.2, 3)), d12=float(rng.uniform(0.2, 3.0)),
                     kappa=float(rng.uniform(0.5, 2)), eta=float(rng.uniform(2, 4)))


def test_array_closed_form_equals_the_scalar_api():
    rng = np.random.default_rng(23)
    for _ in range(20):
        cfg = random_config(rng)
        alpha = np.append(rng.random(98), [0.0, 1.0])
        got = _omniscient_rates(cfg, alpha)
        want = [brc_omniscient_common_rate(replace(cfg, alpha=a)) for a in alpha.tolist()]
        for r, name in zip(got, ("r2", "r3", "r4")):
            assert np.array_equal(r, [getattr(w, name) for w in want])


def test_search_equals_the_scalar_objective_search():
    rng = np.random.default_rng(24)
    for opt in (OptimizerConfig(), OptimizerConfig(resolution=7, rounds=6, budget=40)):
        for _ in range(5):
            cfg = random_config(rng)
            got = brc_optimize(cfg, opt)
            (alpha,), evals, _, incomplete = reference_refine_points(
                lambda a: brc_omniscient_common_rate(replace(cfg, alpha=a)).common_rate, 1, opt)
            assert got.config == replace(cfg, alpha=alpha)
            assert (got.evaluations, got.incomplete) == (evals, incomplete)


def test_search_below_one_round_rates_the_midpoint(caplog):
    # a budget too small for any grid round rates the box midpoint rather
    # than return it unrated, flags the search and says so
    cfg = BrcConfig(p1=10, p2=10, d12=1, eta=2)
    with caplog.at_level("WARNING", logger="relayrates"):
        got = brc_optimize(cfg, OptimizerConfig(budget=1))
    assert (got.evaluations, got.incomplete) == (1, True)
    assert got.config == replace(cfg, alpha=0.5)
    assert got.common_rate == brc_omniscient_common_rate(got.config).common_rate
    assert "only the box midpoint is rated" in caplog.text

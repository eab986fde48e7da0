import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relayrates import (
    BrcConfig,
    ChannelValidationError,
    brc_omniscient_common_rate,
    brc_onehop_common_rate,
    brc_optimize,
)
from relayrates.brc import _omniscient_rates

from reference import reference_crossing


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
    for _ in range(100):
        cfg = BrcConfig(
            p1=float(rng.uniform(0.1, 50)), p2=float(rng.uniform(0.1, 50)),
            d12=float(rng.uniform(0.2, 3.0)),
        )
        oh = brc_onehop_common_rate(cfg).common_rate
        best = brc_optimize(cfg).common_rate
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
    res = brc_optimize(cfg)
    best = max(
        brc_omniscient_common_rate(replace(cfg, alpha=float(a))).common_rate
        for a in np.linspace(0.0, 1.0, 20001)
    )
    assert res.common_rate >= best - 1e-8


def test_optimum_rates_are_the_closed_form_at_its_config():
    rng = np.random.default_rng(12)
    for _ in range(10):
        cfg = BrcConfig(p1=float(rng.uniform(0.1, 50)), p2=float(rng.uniform(0.1, 50)),
                        d12=float(rng.uniform(0.2, 3.0)))
        res = brc_optimize(cfg)
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


@st.composite
def configs(draw):
    """A random configuration, with one of the powers 0 in one draw of
    eight."""
    cfg = random_config(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if draw(st.integers(0, 7)) == 0:
        cfg = replace(cfg, **{draw(st.sampled_from(["p1", "p2"])): 0.0})
    return cfg


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(cfg=configs())
@example(cfg=BrcConfig())
@example(cfg=BrcConfig(d12=0.6, n3=2.0))
@example(cfg=BrcConfig(p2=0.0))
def test_search_equals_the_scalar_objective_search(cfg):
    # the exact search against the scalar API: its rates are the closed form
    # at its configuration, it is no worse than either end, and where r2
    # crosses the noisier destination's rate inside [0, 1] it returns the
    # crossing, found here by bisection
    got = brc_optimize(cfg)
    assert got.config == replace(cfg, alpha=got.config.alpha)
    assert got.rates == brc_omniscient_common_rate(got.config)
    assert got.common_rate == got.rates.common_rate
    assert (got.evaluations, got.incomplete) == (3, False)
    ends = [brc_omniscient_common_rate(replace(cfg, alpha=a)).common_rate for a in (0.0, 1.0)]
    assert got.common_rate >= max(ends)

    def gap(alpha):
        rates = brc_omniscient_common_rate(replace(cfg, alpha=alpha))
        return rates.r2 - min(rates.r3, rates.r4)
    # at P2 = 0 the destinations' rates are flat in alpha, so every split up
    # to the crossing is optimal and the search keeps alpha = 0, the first
    if gap(0.0) * gap(1.0) < 0.0 and cfg.p2 > 0.0:
        assert got.config.alpha == pytest.approx(reference_crossing(gap, 0.0, 1.0), abs=1e-12)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(cfg=configs())
def test_search_is_no_worse_than_a_dense_grid(cfg):
    rates = _omniscient_rates(cfg, np.linspace(0.0, 1.0, 10_000))
    # the closed form's rounding against the grid's, a few ulps of the rate
    assert brc_optimize(cfg).common_rate >= float(np.max(np.minimum.reduce(rates))) - 1e-14

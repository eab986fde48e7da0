import math
from unittest import mock

import numpy as np
import pytest

from relayrates import (
    ChannelValidationError,
    PowerConfig,
    PropagationModel,
    SplitMatrix,
    ZetaDivergenceError,
    build_linear_geometry,
    interference_bound,
    large_T_report,
    rate_report,
    zeta,
)
from relayrates import asymptotics

PI2_6 = math.pi ** 2 / 6.0
APERY = 1.2020569031595942854


def test_zeta_reference_values_within_certified_error():
    for eta, ref in ((2.0, PI2_6), (3.0, APERY), (4.0, math.pi ** 4 / 90.0)):
        z = zeta(eta, accuracy=1e-10)
        assert z.error <= 1e-10
        assert abs(z.value - ref) <= z.error


def test_zeta_certificate_shrinks_with_accuracy():
    loose = zeta(2.5, accuracy=1e-4)
    tight = zeta(2.5, accuracy=1e-12)
    assert tight.error < loose.error
    assert tight.terms > loose.terms
    assert abs(tight.value - loose.value) <= loose.error + tight.error


def test_zeta_decreasing_in_eta():
    vals = [zeta(e).value for e in (1.5, 2.0, 3.0, 5.0, 10.0)]
    assert all(vals[i] > vals[i + 1] for i in range(4))


def test_zeta_divergence_and_bad_accuracy():
    with pytest.raises(ZetaDivergenceError):
        zeta(1.0)
    with pytest.raises(ZetaDivergenceError):
        zeta(0.5)
    with pytest.raises(ValueError):
        zeta(2.0, accuracy=0.0)


def test_interference_bound_scales_linearly():
    base = interference_bound(2.0, 1.0, 10.0)
    assert base == pytest.approx(6.0 * PI2_6 * 10.0, rel=1e-9)
    assert interference_bound(2.0, 2.0, 10.0) == pytest.approx(2.0 * base, rel=1e-12)
    assert interference_bound(2.0, 1.0, 20.0) == pytest.approx(2.0 * base, rel=1e-12)


def test_report_matches_generic_evaluator_on_small_chains():
    prop = PropagationModel()
    for t in (4, 6, 9):
        rng = np.random.default_rng(t)
        fwd = rng.uniform(0.0, 1.0, t - 2)
        rep = large_T_report(t, power=7.0, alpha=fwd)
        geom = build_linear_geometry([1.0] * (t - 1))
        power = PowerConfig.uniform(t, 7.0)
        generic = rate_report(geom, prop, power, SplitMatrix.two_hop(fwd), 2)
        for rcv in range(2, t + 1):
            assert rep.rates[rcv - 2] == pytest.approx(
                generic.record(rcv).rate, rel=1e-12
            )
        assert rep.min_rate == pytest.approx(generic.rate, rel=1e-12)
        assert rep.bottleneck == generic.bottleneck


def test_interior_interference_stays_under_bound():
    rep = large_T_report(400, power=10.0, alpha=0.5)
    assert rep.bound_satisfied
    assert rep.max_interior_interference < rep.bound


def test_min_rate_converges_for_long_chains():
    r200 = large_T_report(200).min_rate
    r400 = large_T_report(400).min_rate
    assert r200 > 0.0
    assert abs(r400 - r200) < 1e-3


def test_validation_and_resource_cap():
    with pytest.raises(ValueError):
        large_T_report(2)
    with pytest.raises(ValueError):
        large_T_report(100, alpha=1.5)
    with pytest.raises(ValueError):
        large_T_report(10_000)
    with pytest.raises(ZetaDivergenceError):
        large_T_report(10, eta=1.0)
    # the cap is read at call time, so a caller who must can raise it
    with mock.patch.object(asymptotics, "DEFAULT_T_CAP", 6000):
        large_T_report(6000)


@pytest.mark.parametrize("count", [10.7, 9.5, math.nan, math.inf])
def test_rejects_non_integral_node_count(count):
    with pytest.raises(ValueError, match="whole number"):
        large_T_report(count)


def test_accepts_an_integral_float_node_count():
    assert np.array_equal(large_T_report(10.0).rates, large_T_report(10).rates)


@pytest.mark.parametrize("alpha", [[0.5] * 3, [0.5] * 9, [[0.5] * 8]])
def test_rejects_a_profile_of_the_wrong_length(alpha):
    with pytest.raises(ValueError, match="needs T-2 = 8 entries"):
        large_T_report(10, alpha=alpha)


@pytest.mark.parametrize("bad", [
    {"noise": -1.0},
    {"power": -1.0},
    {"kappa": -1.0},
])
def test_rejects_invalid_channel_values(bad):
    with pytest.raises(ChannelValidationError):
        large_T_report(10, **bad)


@pytest.mark.parametrize("bad", [
    {"power": True}, {"noise": True}, {"kappa": True}, {"eta": np.True_},
])
def test_rejects_boolean_channel_values(bad):
    # power=True ran the chain at 1 W
    (name, value), = bad.items()
    with pytest.raises(ValueError, match=f"{name} must be a number, got {value!r}"):
        large_T_report(10, **bad)


@pytest.mark.parametrize("alpha", [True, [True] * 8, [0.5] * 7 + [False],
                                   np.ones(8, dtype=bool)])
def test_rejects_boolean_forward_fractions(alpha):
    with pytest.raises(ValueError, match="alpha must hold numbers, not booleans"):
        large_T_report(10, alpha=alpha)


def test_rejects_non_finite_forward_fraction():
    with pytest.raises(ValueError):
        large_T_report(10, alpha=float("nan"))
    with pytest.raises(ValueError):
        large_T_report(10, alpha=[0.5] * 7 + [float("nan")])


@pytest.mark.parametrize("bad", [
    {"eta": math.nan}, {"kappa": math.nan}, {"kappa": math.inf},
    {"power": math.inf}, {"power": math.nan}, {"noise": math.nan},
])
def test_rejects_non_finite_channel_values(bad):
    with pytest.raises(ChannelValidationError):
        large_T_report(10, **bad)


def test_zeta_rejects_nan():
    with pytest.raises(ValueError, match="eta must be a number"):
        zeta(math.nan)
    with pytest.raises(ValueError, match="accuracy must be positive"):
        zeta(2.0, accuracy=math.nan)

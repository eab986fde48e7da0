import math

import numpy as np
import pytest

from relayrates import (
    ChannelValidationError,
    CombiningMode,
    NetworkGeometry,
    Permutation,
    PowerConfig,
    PropagationModel,
    SplitMatrix,
    build_linear_geometry,
    compile_chain,
    efficiency,
    failure_impact,
    optimize_splits,
    point_to_point_rate,
    rate_report,
    reception_rate,
)


def random_five_node(rng):
    d = rng.uniform(0.5, 3.0, size=(5, 5))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    geom = NetworkGeometry(d)
    power = PowerConfig(rng.uniform(0.1, 50.0, 4), rng.uniform(0.1, 50.0, 4))
    return geom, power


def test_point_to_point_rate():
    assert point_to_point_rate(3.0, 1.0) == pytest.approx(1.0)
    assert point_to_point_rate(0.0, 1.0) == 0.0
    with pytest.raises(ChannelValidationError):
        point_to_point_rate(1.0, 0.0)
    with pytest.raises(ChannelValidationError):
        point_to_point_rate(-1.0, 1.0)


def test_onehop_rate_matches_hand_derivation():
    # unit-spacing 5 nodes, P=10: receiver 2 decodes node 1 and hears
    # nodes 3, 4 as noise at distances 1 and 2
    geom = build_linear_geometry([1.0] * 4)
    power = PowerConfig.uniform(5, 10.0)
    splits = SplitMatrix.own_only(5, 1)
    rec = reception_rate(geom, PropagationModel(), power, splits, 1, receiver=2)
    want = 0.5 * math.log2(1.0 + 10.0 / (1.0 + 10.0 + 10.0 / 4.0))
    assert rec.rate == pytest.approx(want, rel=1e-14)


def test_twohop_receiver2_closed_form():
    # interference at node 2 is the coherent sum of node 3's forward part
    # and node 4's full transmission
    rng = np.random.default_rng(42)
    for _ in range(100):
        geom, power = random_five_node(rng)
        a = rng.uniform(0.0, 1.0, 3)
        splits = SplitMatrix.two_hop(a)
        rec = reception_rate(geom, PropagationModel(), power, splits, 2, receiver=2)
        lam = lambda i, t: geom.distance(i, t) ** -2.0
        p = power.transmit_powers
        sig = lam(1, 2) * (1.0 - a[0]) * p[0]
        noise = power.noise_power(2) + (
            math.sqrt(lam(3, 2) * a[2] * p[2]) + math.sqrt(lam(4, 2) * p[3])
        ) ** 2
        assert rec.rate == pytest.approx(0.5 * math.log2(1.0 + sig / noise), rel=1e-12)


def test_omniscient_receiver2_sees_no_interference():
    rng = np.random.default_rng(11)
    geom, power = random_five_node(rng)
    rows = tuple(tuple(rng.dirichlet(np.ones(m))) for m in (4, 3, 2, 1))
    splits = SplitMatrix(rows)
    rec = reception_rate(geom, PropagationModel(), power, splits, 4, receiver=2)
    assert rec.p_int == 0.0
    sig = geom.distance(1, 2) ** -2.0 * rows[0][0] * power.transmit_power(1)
    assert rec.rate == pytest.approx(
        0.5 * math.log2(1.0 + sig / power.noise_power(2)), rel=1e-12
    )


def test_fading_never_beats_coherent():
    rng = np.random.default_rng(3)
    for _ in range(50):
        geom, power = random_five_node(rng)
        splits = SplitMatrix.two_hop(rng.uniform(0, 1, 3))
        for r in range(2, 6):
            coh = reception_rate(
                geom, PropagationModel(), power, splits, 2,
                mode=CombiningMode.COHERENT, receiver=r,
            )
            fad = reception_rate(
                geom, PropagationModel(), power, splits, 2,
                mode=CombiningMode.FADING, receiver=r,
            )
            assert fad.p_sig <= coh.p_sig + 1e-12


def test_fading_equals_coherent_for_single_carriers():
    geom = build_linear_geometry([1.0] * 4)
    power = PowerConfig.uniform(5, 10.0)
    splits = SplitMatrix.own_only(5, 1)
    for r in range(2, 6):
        coh = reception_rate(geom, PropagationModel(), power, splits, 1,
                             mode=CombiningMode.COHERENT, receiver=r)
        fad = reception_rate(geom, PropagationModel(), power, splits, 1,
                             mode=CombiningMode.FADING, receiver=r)
        assert coh.rate == pytest.approx(fad.rate, rel=1e-14)


def test_report_bottleneck_and_tie_break():
    geom = build_linear_geometry([1.0] * 4)
    power = PowerConfig.uniform(5, 10.0)
    splits = SplitMatrix.own_only(5, 1)
    report = rate_report(geom, PropagationModel(), power, splits, 1)
    # receivers 2 and 3 see identical signal/interference by symmetry
    assert report.record(2).rate == report.record(3).rate
    assert report.bottleneck == 2
    assert report.rate == report.record(2).rate


FIVE_NODES = build_linear_geometry([1.0] * 4)
SIZE_CALLS = {
    "compile_chain": lambda power, perm: compile_chain(
        FIVE_NODES, PropagationModel(), power, 2, perm, CombiningMode.COHERENT),
    "rate_report": lambda power, perm: rate_report(
        FIVE_NODES, PropagationModel(), power, SplitMatrix.own_only(5, 2), 2, perm),
    "failure_impact": lambda power, perm: failure_impact(
        FIVE_NODES, PropagationModel(), power, SplitMatrix.own_only(5, 2), 2, {3}, perm),
    "optimize_splits": lambda power, perm: optimize_splits(
        FIVE_NODES, PropagationModel(), power, 2, perm),
}


@pytest.mark.parametrize("powers,orders,message", [
    (6, 5, "the power config is for 6 nodes; the geometry has 5"),
    (4, 5, "the power config is for 4 nodes; the geometry has 5"),
    (5, 6, "the permutation is for 6 nodes; the geometry has 5"),
    (5, 4, "the permutation is for 4 nodes; the geometry has 5"),
    (5, 3, "the permutation is for 3 nodes; the geometry has 5"),
], ids=["power_too_long", "power_too_short", "perm_too_long", "perm_too_short",
        "perm_far_too_short"])
@pytest.mark.parametrize("call", list(SIZE_CALLS))
def test_sizes_must_fit_the_geometry(call, powers, orders, message):
    # the mismatch is named before anything indexes or broadcasts past it
    with pytest.raises(ChannelValidationError) as exc:
        SIZE_CALLS[call](PowerConfig.uniform(powers, 10.0), Permutation.identity(orders))
    assert str(exc.value) == message


def test_bad_receiver_rejected():
    geom = build_linear_geometry([1.0, 1.0])
    power = PowerConfig.uniform(3, 1.0)
    splits = SplitMatrix.own_only(3, 1)
    with pytest.raises(ChannelValidationError):
        reception_rate(geom, PropagationModel(), power, splits, 1, receiver=1)
    with pytest.raises(ChannelValidationError):
        reception_rate(geom, PropagationModel(), power, splits, 1, receiver=4)


def test_efficiency_flags_impossible_ratio():
    eff = efficiency(1.0, 2.0)
    assert eff.ratio == 0.5 and not eff.exceeds_unity
    assert efficiency(2.0000001, 2.0).exceeds_unity
    with pytest.raises(ChannelValidationError):
        efficiency(1.0, 0.0)


def test_permutation_relabels_receivers():
    # swapping relays 2 and 3 in the order must equal relabeling the chain
    geom = build_linear_geometry([1.0, 2.0, 1.5])
    power = PowerConfig([3.0, 4.0, 5.0], [1.0, 1.0, 1.0])
    perm = Permutation((1, 3, 2, 4))
    splits = SplitMatrix.own_only(4, 1)
    rep = rate_report(geom, PropagationModel(), power, splits, 1, perm)
    # node 3 is now first in the relay order: it decodes node 1 at d13=3
    rec3 = rep.record(3)
    lam = lambda i, t: geom.distance(i, t) ** -2.0
    want = lam(1, 3) * 3.0 / (1.0 + lam(2, 3) * 4.0)
    assert rec3.rate == pytest.approx(0.5 * math.log2(1.0 + want), rel=1e-12)

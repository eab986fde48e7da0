import dataclasses
import warnings

import numpy as np
import pytest

from relayrates import (
    ChannelValidationError,
    NetworkGeometry,
    PowerConfig,
    PropagationModel,
    build_linear_geometry,
    gain,
    large_T_report,
    received_power,
)
from relayrates.discrete import DmcChannel, JointPmf, NodeInput


def test_linear_geometry_distances_add():
    geom = build_linear_geometry([1.0, 2.0, 0.5])
    assert geom.node_count == 4
    assert geom.distance(1, 4) == pytest.approx(3.5)
    assert geom.distance(2, 4) == pytest.approx(2.5)
    assert geom.distance(3, 1) == geom.distance(1, 3)


def test_geometry_rejects_asymmetry_and_zero_distance():
    with pytest.raises(ChannelValidationError):
        NetworkGeometry([[0, 1, 2], [1.5, 0, 1], [2, 1, 0]])
    with pytest.raises(ChannelValidationError):
        NetworkGeometry([[0, 0, 2], [0, 0, 1], [2, 1, 0]])
    with pytest.raises(ChannelValidationError):
        NetworkGeometry(np.zeros((2, 2)))


@pytest.mark.parametrize("distances,message", [
    (np.zeros((3, 4)), "distance matrix must be square"),
    (np.zeros(3), "distance matrix must be square"),
    (np.zeros((2, 2)), "need at least 3 nodes (source, one relay, destination)"),
    ([[0, 1, 2], [1, 0, np.nan], [2, np.nan, 0]], "distances must be finite"),
    ([[0, 1, 2], [1, 0, np.inf], [2, np.inf, 0]], "distances must be finite"),
    ([[0, 1, 2], [1 + 2e-12, 0, 1], [2, 1, 0]], "distance matrix must be symmetric"),
    ([[1e-12, 1, 2], [1, 0, 1], [2, 1, 0]], "self-distances must be zero"),
    ([[0, 1e-10, 2], [1e-10, 0, 1], [2, 1, 0]], "off-diagonal distances must be >= 1e-09 m"),
    ([[0, 1, -2], [1, 0, 1], [-2, 1, 0]], "off-diagonal distances must be >= 1e-09 m"),
])
def test_geometry_rejection_messages(distances, message):
    with pytest.raises(ChannelValidationError) as exc:
        NetworkGeometry(distances)
    assert str(exc.value) == message


def test_geometry_symmetry_tolerates_1e12_relative():
    d = np.array([[0.0, 1.0, 2.0], [1.0 + 5e-13, 0.0, 1.0], [2.0, 1.0, 0.0]])
    assert NetworkGeometry(d).distance(2, 1) == 1.0 + 5e-13


def test_geometry_is_read_only():
    geom = build_linear_geometry([1.0, 1.0])
    with pytest.raises(ValueError):
        geom.distances[0, 1] = 5.0


@pytest.mark.parametrize("make,build,held", [
    (lambda: build_linear_geometry([1.0, 2.0]).distances.copy(), NetworkGeometry,
     lambda obj: obj.distances),
    (lambda: np.full(3, 10.0), lambda a: PowerConfig(a, [1.0, 1.0, 1.0]),
     lambda obj: obj.transmit_powers),
    (lambda: np.full(3, 1.0), lambda a: PowerConfig([10.0, 10.0, 10.0], a),
     lambda obj: obj.noise_powers),
], ids=["geometry", "transmit_powers", "noise_powers"])
def test_value_types_leave_the_callers_array_writeable(make, build, held):
    mine = make()
    obj = build(mine)
    kept = held(obj).copy()
    mine[...] = 7.0             # raises if the object froze the caller's array
    assert np.array_equal(held(obj), kept)
    assert not held(obj).flags.writeable


def test_value_types_keep_read_only_arrays_uncopied():
    geom = build_linear_geometry([1.0, 2.0])
    assert NetworkGeometry(geom.distances).distances is geom.distances
    power = PowerConfig.uniform(4, 10.0)
    again = PowerConfig(power.transmit_powers, power.noise_powers)
    assert again.transmit_powers is power.transmit_powers
    assert again.noise_powers is power.noise_powers


@pytest.mark.parametrize("build,name,change", [
    (lambda: build_linear_geometry([1.0, 2.0]), "distances", lambda a: 2.0 * a),
    (lambda: PowerConfig.uniform(4, 10.0), "noise_powers", lambda a: 2.0 * a),
    (lambda: DmcChannel((2, 2), (2, 2), np.full((2, 2, 2, 2), 0.25)), "table",
     lambda a: np.eye(4).reshape(a.shape)),
    (lambda: NodeInput([0.5, 0.5], [0, 1]), "x_map", lambda a: a[::-1]),
    (lambda: JointPmf(("a", "b"), np.full((2, 2), 0.25)), "table",
     lambda a: np.diag([0.5, 0.5])),
    (lambda: large_T_report(8), "p_int", lambda a: a + 1.0),
], ids=["geometry", "power", "dmc_channel", "node_input", "joint_pmf", "large_report"])
def test_array_value_types_compare_field_by_field(build, name, change):
    one, two = build(), build()
    assert getattr(one, name) is not getattr(two, name)
    assert one == two and not one != two
    changed = dataclasses.replace(one, **{name: change(getattr(one, name))})
    assert one != changed and not one == changed
    assert one != (1, 2) and not one == "another type"
    with pytest.raises(TypeError):
        hash(one)


def test_propagation_eta_floor():
    PropagationModel(eta=2.0)
    PropagationModel(eta=1.5, allow_low_eta=True)
    with pytest.raises(ChannelValidationError):
        PropagationModel(eta=1.5)
    with pytest.raises(ChannelValidationError):
        PropagationModel(eta=1.0, allow_low_eta=True)
    with pytest.raises(ChannelValidationError):
        PropagationModel(kappa=0.0)


def test_gain_is_inverse_power_law():
    geom = build_linear_geometry([2.0, 1.0])
    prop = PropagationModel(kappa=3.0, eta=2.0)
    assert gain(geom, prop, 1, 2) == pytest.approx(3.0 / 4.0)
    assert gain(geom, prop, 1, 3) == pytest.approx(3.0 / 9.0)
    with pytest.raises(ChannelValidationError):
        gain(geom, prop, 2, 2)


def test_received_power():
    geom = build_linear_geometry([1.0, 1.0])
    prop = PropagationModel()
    power = PowerConfig([4.0, 9.0], [1.0, 1.0])
    assert received_power(geom, prop, power, 1, 3) == pytest.approx(1.0)
    assert received_power(geom, prop, power, 2, 3) == pytest.approx(9.0)
    with pytest.raises(ChannelValidationError):
        received_power(geom, prop, power, 3, 2)


def test_power_config_validation():
    with pytest.raises(ChannelValidationError):
        PowerConfig([1.0, 2.0], [1.0])
    with pytest.raises(ChannelValidationError):
        PowerConfig([-1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ChannelValidationError):
        PowerConfig([1.0, 2.0], [0.0, 1.0])
    uni = PowerConfig.uniform(5, 10.0, 2.0)
    assert uni.transmit_power(4) == 10.0
    assert uni.noise_power(5) == 2.0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("bad", [
    {"kappa": NAN}, {"kappa": INF}, {"eta": NAN}, {"eta": INF},
    {"eta": NAN, "allow_low_eta": True},
])
def test_propagation_rejects_non_finite(bad):
    with pytest.raises(ChannelValidationError):
        PropagationModel(**bad)


@pytest.mark.parametrize("powers,noises", [
    ([1.0, NAN], [1.0, 1.0]),
    ([1.0, INF], [1.0, 1.0]),
    ([1.0, 1.0], [NAN, 1.0]),
    ([1.0, 1.0], [1.0, INF]),
])
def test_power_config_rejects_non_finite(powers, noises):
    with pytest.raises(ChannelValidationError):
        PowerConfig(powers, noises)


@pytest.mark.parametrize("spacings", [[1.0, NAN], [1.0, INF], [NAN, NAN]])
def test_linear_geometry_rejects_non_finite_spacing(spacings):
    with pytest.raises(ChannelValidationError, match="finite"):
        build_linear_geometry(spacings)


def test_linear_geometry_rejects_overflowing_positions_without_warnings():
    # finite spacings whose running sum overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChannelValidationError, match="finite"):
            build_linear_geometry([1e308] * 4)


def test_geometry_rejects_non_finite_distance():
    with pytest.raises(ChannelValidationError, match="finite"):
        NetworkGeometry([[0, 1, NAN], [1, 0, 1], [NAN, 1, 0]])

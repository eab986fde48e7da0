"""Geometry, propagation, and power bookkeeping for relay networks.

Node ids are 1-based: node 1 is the source, node T the destination, and
nodes 2..T-1 relays.  Distances are in meters, powers in watts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

MIN_DISTANCE_M = 1e-9


class ChannelValidationError(ValueError):
    """Raised when a geometry, propagation, or power description is invalid."""


def _read_only(value, dtype=float) -> np.ndarray:
    """``value`` as a read-only array, copied first only if it is the
    caller's own writeable array, which ``np.asarray`` hands back uncopied."""
    arr = np.asarray(value, dtype=dtype)
    if arr.flags.writeable and (arr is value or arr.base is not None):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _fields_equal(self, other):
    """``__eq__`` for a frozen dataclass with array fields: the same class
    and every field equal, arrays by ``np.array_equal``.  The dataclass
    still generates its field-wise ``__hash__``, which raises ``TypeError``
    on an array, so instances stay unhashable."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
               for a, b in ((getattr(self, f.name), getattr(other, f.name))
                            for f in fields(self)))


@dataclass(frozen=True)
class NetworkGeometry:
    """Pairwise distances between the T nodes of a relay network."""

    distances: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        d = _read_only(self.distances)
        object.__setattr__(self, "distances", d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ChannelValidationError("distance matrix must be square")
        if d.shape[0] < 3:
            raise ChannelValidationError(
                "need at least 3 nodes (source, one relay, destination)"
            )
        if not np.all(np.isfinite(d)):
            raise ChannelValidationError("distances must be finite")
        # exact symmetry, as line geometries have it, settles the 1e-12 test
        if not (np.array_equal(d, d.T)
                or np.all(np.abs(d - d.T) <= 1e-12 * np.abs(d.T))):
            raise ChannelValidationError("distance matrix must be symmetric")
        if np.any(np.diag(d) != 0.0):
            raise ChannelValidationError("self-distances must be zero")
        # the zero diagonal accounts for exactly T entries below the floor
        if np.count_nonzero(d < MIN_DISTANCE_M) > d.shape[0]:
            raise ChannelValidationError(
                f"off-diagonal distances must be >= {MIN_DISTANCE_M} m"
            )

    @property
    def node_count(self) -> int:
        return self.distances.shape[0]

    def distance(self, i: int, t: int) -> float:
        """Distance in meters between nodes i and t (1-based ids)."""
        return float(self.distances[i - 1, t - 1])


def build_linear_geometry(spacings) -> NetworkGeometry:
    """Geometry of nodes on a straight line with the given adjacent spacings.

    ``spacings[j]`` is the distance from node j+1 to node j+2, so T =
    len(spacings) + 1.  The result satisfies d_ik = d_ij + d_jk for i < j < k.
    """
    s = np.asarray(spacings, dtype=float)
    if s.ndim != 1 or s.size < 2:
        raise ChannelValidationError("need at least 2 spacings (3 nodes)")
    if not np.all((s > 0.0) & (s < np.inf)):
        raise ChannelValidationError("spacings must be positive and finite")
    with np.errstate(over="ignore"):
        pos = np.concatenate([[0.0], np.cumsum(s)])
    if not np.isfinite(pos[-1]):   # positions increase, so the last is largest
        raise ChannelValidationError("the spacings must sum to a finite length")
    d = np.abs(pos[:, None] - pos[None, :])
    d.setflags(write=False)
    return NetworkGeometry(d)


@dataclass(frozen=True)
class PropagationModel:
    """Path-loss model: gain(i, t) = kappa * d_it ** (-eta).

    eta >= 2 is enforced (free space at equality); pass
    ``allow_low_eta=True`` to explore 1 < eta < 2.
    """

    kappa: float = 1.0
    eta: float = 2.0
    allow_low_eta: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.kappa < math.inf:
            raise ChannelValidationError("kappa must be positive and finite")
        if not 1.0 < self.eta < math.inf:
            raise ChannelValidationError("eta must exceed 1 and be finite")
        if self.eta < 2.0 and not self.allow_low_eta:
            raise ChannelValidationError(
                "eta >= 2 required (use allow_low_eta=True to override)"
            )


@dataclass(frozen=True)
class PowerConfig:
    """Average transmit powers for nodes 1..T-1 and noise powers for 2..T."""

    transmit_powers: np.ndarray
    noise_powers: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        p = _read_only(self.transmit_powers)
        n = _read_only(self.noise_powers)
        object.__setattr__(self, "transmit_powers", p)
        object.__setattr__(self, "noise_powers", n)
        if p.ndim != 1 or n.ndim != 1 or p.size != n.size:
            raise ChannelValidationError(
                "need T-1 transmit powers and T-1 noise powers"
            )
        if not np.all((p >= 0.0) & (p < np.inf)):
            raise ChannelValidationError(
                "transmit powers must be non-negative and finite"
            )
        if not np.all((n > 0.0) & (n < np.inf)):
            raise ChannelValidationError(
                "noise powers must be strictly positive and finite"
            )

    @classmethod
    def uniform(cls, node_count: int, power: float, noise: float = 1.0) -> "PowerConfig":
        rows = np.repeat([[float(power)], [float(noise)]], node_count - 1, axis=1)
        rows.setflags(write=False)
        return cls(*rows)

    def transmit_power(self, i: int) -> float:
        """Average transmit power of node i (1-based, i <= T-1)."""
        return float(self.transmit_powers[i - 1])

    def noise_power(self, t: int) -> float:
        """Receiver noise power at node t (1-based, 2 <= t <= T)."""
        return float(self.noise_powers[t - 2])


def gain(geometry: NetworkGeometry, prop: PropagationModel, i: int, t: int) -> float:
    """Dimensionless channel gain kappa * d_it ** (-eta) between nodes i and t."""
    if i == t:
        raise ChannelValidationError("no self-gain: i and t must differ")
    return prop.kappa * geometry.distance(i, t) ** (-prop.eta)


def received_power(
    geometry: NetworkGeometry,
    prop: PropagationModel,
    power: PowerConfig,
    i: int,
    t: int,
) -> float:
    """Received power at node t from transmitter i, gain(i, t) * P_i, in watts."""
    if i >= geometry.node_count:
        raise ChannelValidationError("the destination does not transmit")
    return gain(geometry, prop, i, t) * power.transmit_power(i)

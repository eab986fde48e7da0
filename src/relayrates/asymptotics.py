"""Large-network behavior of two-hop decode-forward on equally spaced chains.

With unit spacing the interference a receiver cannot cancel is a sum of
inverse-power-law terms whose total is bounded by 6 * zeta(eta) * kappa * P
at every interior node, so reception rates stay bounded away from zero as
the chain grows.  The decode/cancel window is the one described in the
``gaussian`` module docstring.

``large_T_report`` evaluates the chain by lag: on unit spacing every gain
depends only on the distance, so ``gaussian._lag_powers`` turns each band
power into a few 1-D convolutions over carrier pairs, with O(T) memory.  A
scalar ``alpha`` costs O(T): each pair input is constant but for its ends,
and a constant run goes through prefix sums.  A per-node profile costs up
to O(T^2) multiply-adds in C, which ``DEFAULT_T_CAP`` bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import PowerConfig, PropagationModel, _fields_equal, _whole
from .gaussian import _lag_powers

DEFAULT_T_CAP = 5000
_CHUNK = 1 << 20


class ZetaDivergenceError(ValueError):
    """zeta(eta) diverges for eta <= 1."""


@dataclass(frozen=True)
class ZetaValue:
    """Partial zeta sum with a certified truncation error.

    The tail past J is bracketed by the integral bounds
    (J+1)^(1-eta)/(eta-1) <= sum_{j>J} j^-eta <= J^(1-eta)/(eta-1);
    ``value`` is the partial sum plus the bracket midpoint and ``error``
    half the bracket width.
    """

    eta: float
    value: float
    error: float
    terms: int


def zeta(eta: float, accuracy: float = 1e-9) -> ZetaValue:
    """Riemann zeta at eta > 1 to a certified absolute accuracy."""
    if math.isnan(eta):
        raise ValueError("eta must be a number")
    if eta <= 1.0:
        raise ZetaDivergenceError(f"zeta diverges for eta <= 1 (got {eta})")
    if not accuracy > 0.0:
        raise ValueError("accuracy must be positive")

    terms = max(16, int(math.ceil((0.5 / accuracy) ** (1.0 / eta))))
    while True:
        upper = terms ** (1.0 - eta) / (eta - 1.0)
        lower = (terms + 1.0) ** (1.0 - eta) / (eta - 1.0)
        error = 0.5 * (upper - lower)
        if error <= accuracy:
            break
        terms *= 2
    partial = 0.0
    for start in range(1, terms + 1, _CHUNK):
        j = np.arange(start, min(start + _CHUNK, terms + 1), dtype=float)
        partial += float(np.sum(j ** (-eta)))
    return ZetaValue(eta, partial + 0.5 * (upper + lower), error, terms)


def interference_bound(eta: float, kappa: float, power: float,
                       accuracy: float = 1e-9) -> float:
    """Interior-node interference cap 6 * zeta(eta) * kappa * P in watts."""
    return 6.0 * zeta(eta, accuracy).value * kappa * power


@dataclass(frozen=True)
class LargeNetworkReport:
    """Per-node rates and interference for a unit-spacing two-hop chain."""

    node_count: int
    rates: np.ndarray        # reception rate of nodes 2..T
    p_sig: np.ndarray
    p_int: np.ndarray
    min_rate: float
    bottleneck: int
    interior_nodes: tuple    # node range the 6*zeta bound certifies
    max_interior_interference: float
    bound: float
    bound_satisfied: bool

    __eq__ = _fields_equal


def large_T_report(
    node_count: int,
    power: float = 10.0,
    eta: float = 2.0,
    kappa: float = 1.0,
    noise: float = 1.0,
    alpha=0.5,
) -> LargeNetworkReport:
    """Evaluate every reception rate of the T-node unit-spacing chain under
    two-hop decode-forward with the given forward fraction(s).

    ``alpha`` is a scalar or a per-node array of T-2 entries: the fractions
    nodes 1..T-2 spend on the next node's sub-signal.  Interior nodes are checked
    against the 6*zeta(eta) interference bound; boundary nodes are only
    evaluated directly.  A node count above ``DEFAULT_T_CAP``, read at call
    time, is refused.
    """
    t = _whole(node_count)
    if t is None:
        raise ValueError(f"node count must be a whole number (got {node_count!r})")
    if t < 3:
        raise ValueError("need at least 3 nodes")
    if t > DEFAULT_T_CAP:
        raise ValueError(f"node count {t} exceeds the resource cap {DEFAULT_T_CAP}")
    for name, value in (("power", power), ("eta", eta), ("kappa", kappa), ("noise", noise)):
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be a number, got {value!r}")
    if (np.asarray(alpha).dtype == bool
            or (isinstance(alpha, (list, tuple))
                and any(isinstance(v, (bool, np.bool_)) for v in alpha))):
        raise ValueError(f"alpha must hold numbers, not booleans (got {alpha!r})")
    if eta <= 1.0:
        raise ZetaDivergenceError("eta must exceed 1 for bounded interference")
    # the channel's own checks: finite kappa > 0, eta > 1, power >= 0, noise > 0
    prop = PropagationModel(kappa, eta, allow_low_eta=True)
    PowerConfig.uniform(t, power, noise)

    fwd = np.asarray(alpha, dtype=float)
    if fwd.ndim and fwd.shape != (t - 2,):
        raise ValueError(f"a forward profile needs T-2 = {t - 2} entries, "
                         f"one per node 1..T-2 (got shape {fwd.shape})")
    fwd = np.broadcast_to(fwd, (t - 2,))
    if not np.all((fwd >= 0.0) & (fwd <= 1.0)):
        raise ValueError("forward fractions must be finite and lie in [0, 1]")
    # node T-1 carries only its own sub-signal
    a = np.append(fwd, 0.0)
    frac = np.column_stack([1.0 - a, a])

    # gain * power between positions d = 0..T-1 apart, zero at d = 0
    by_dist = np.zeros(t)
    by_dist[1:] = prop.kappa * np.arange(1.0, t) ** (-prop.eta) * power
    p_sig, p_int = _lag_powers(by_dist, frac)
    rates = 0.5 * np.log2(1.0 + p_sig / (noise + p_int))

    bottleneck = int(np.argmin(rates)) + 2
    interior = tuple(range(4, t - 2))
    bound = interference_bound(eta, kappa, power)
    if interior:
        interior_idx = np.array(interior) - 2
        max_int = float(p_int[interior_idx].max())
        ok = bool(max_int < bound)
    else:
        max_int = 0.0
        ok = True
    return LargeNetworkReport(
        node_count=t,
        rates=rates,
        p_sig=p_sig,
        p_int=p_int,
        min_rate=float(rates.min()),
        bottleneck=bottleneck,
        interior_nodes=interior,
        max_interior_interference=max_int,
        bound=bound,
        bound_satisfied=ok,
    )

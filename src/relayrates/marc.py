"""Sum rates for the four-node Gaussian multiple-access relay channel.

Nodes 1 and 2 are sources at unit distance from each other and from the
relay (node 3); the destination (node 4) sits on the perpendicular
bisector of the sources, d_34 behind the relay, so that
d_14^2 = d_24^2 = (sqrt(3)/2 + d_34)^2 + 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelValidationError

SPLIT_TOL = 1e-12


@dataclass(frozen=True)
class MarcConfig:
    """Powers, relay-destination distance, and cooperation splits.

    alpha_i is the fraction of source i's power spent repeating what the
    relay sends; beta_1 + beta_2 = 1 divides the relay's power between the
    two source messages.
    """

    p1: float = 10.0
    p2: float = 10.0
    p3: float = 10.0
    n3: float = 1.0
    n4: float = 1.0
    d34: float = 1.0
    alpha1: float = 0.0
    alpha2: float = 0.0
    beta1: float = 0.5
    beta2: float = 0.5
    kappa: float = 1.0
    eta: float = 2.0

    def __post_init__(self):
        # chained scalar comparisons, each False for NaN; the upper bounds
        # reject infinities
        inf = math.inf
        if not (0.0 <= self.p1 < inf and 0.0 <= self.p2 < inf and 0.0 <= self.p3 < inf):
            raise ChannelValidationError("transmit powers must be non-negative and finite")
        if not (0.0 < self.n3 < inf and 0.0 < self.n4 < inf):
            raise ChannelValidationError("noise powers must be positive and finite")
        if not 0.0 < self.d34 < inf:
            raise ChannelValidationError("d34 must be positive and finite")
        if not (0.0 <= self.alpha1 <= 1.0 and 0.0 <= self.alpha2 <= 1.0):
            raise ChannelValidationError("alpha splits must lie in [0, 1]")
        if not (self.beta1 >= 0.0 and self.beta2 >= 0.0
                and abs(self.beta1 + self.beta2 - 1.0) <= SPLIT_TOL):
            raise ChannelValidationError("beta splits must be non-negative and sum to 1")
        if not (0.0 < self.kappa < inf and 1.0 < self.eta < inf):
            raise ChannelValidationError("kappa must be positive and eta > 1, both finite")

    # source-relay distances are fixed at 1 m (unit equilateral sources)
    d13 = 1.0
    d23 = 1.0

    @property
    def d14(self) -> float:
        return math.sqrt((math.sqrt(3.0) / 2.0 + self.d34) ** 2 + 0.25)

    d24 = d14

    def gain(self, d: float) -> float:
        return self.kappa * d ** (-self.eta)


@dataclass(frozen=True)
class MarcRates:
    """Reception sum rates at the relay and the destination."""

    r3: float
    r4: float
    sum_rate: float


def _onehop_rates(cfg: MarcConfig, p1, p2):
    """(r3, r4) under one-hop decoding, elementwise over the source powers
    (floats or arrays); every other parameter comes from ``cfg``."""
    r3 = 0.5 * np.log2(
        1.0 + (cfg.gain(cfg.d13) * p1 + cfg.gain(cfg.d23) * p2) / cfg.n3
    )
    interference = cfg.gain(cfg.d14) * p1 + cfg.gain(cfg.d24) * p2
    r4 = 0.5 * np.log2(
        1.0 + cfg.gain(cfg.d34) * cfg.p3 / (cfg.n4 + interference)
    )
    return r3, r4


def marc_onehop_sumrate(cfg: MarcConfig) -> MarcRates:
    """One-hop myopic decode-forward: the destination decodes the relay
    only and treats the sources as noise."""
    r3, r4 = map(float, _onehop_rates(cfg, cfg.p1, cfg.p2))
    return MarcRates(r3, r4, min(r3, r4))


def _omniscient_rates(cfg: MarcConfig, alpha1, alpha2, beta1, beta2):
    """(r3, r4) under omniscient decoding, elementwise over the splits
    (floats or arrays); every other parameter comes from ``cfg``."""
    r3 = 0.5 * np.log2(
        1.0
        + (
            cfg.gain(cfg.d13) * (1.0 - alpha1) * cfg.p1
            + cfg.gain(cfg.d23) * (1.0 - alpha2) * cfg.p2
        )
        / cfg.n3
    )
    received = (
        cfg.gain(cfg.d14) * cfg.p1
        + cfg.gain(cfg.d24) * cfg.p2
        + cfg.gain(cfg.d34) * cfg.p3
        + 2.0 * np.sqrt(
            alpha1 * beta1 * cfg.p1 * cfg.p3
            * cfg.gain(cfg.d14) * cfg.gain(cfg.d34)
        )
        + 2.0 * np.sqrt(
            alpha2 * beta2 * cfg.p2 * cfg.p3
            * cfg.gain(cfg.d24) * cfg.gain(cfg.d34)
        )
    )
    r4 = 0.5 * np.log2(1.0 + received / cfg.n4)
    return r3, r4


def marc_omniscient_sumrate(cfg: MarcConfig) -> MarcRates:
    """Omniscient decode-forward with coherent source-relay cooperation."""
    r3, r4 = map(float, _omniscient_rates(
        cfg, cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2
    ))
    return MarcRates(r3, r4, min(r3, r4))


def _crossing(a, b, c, lo, hi) -> float:
    """The root x = -2c / (b + sqrt(b^2 - 4ac)) of a x^2 + b x + c = 0,
    clipped into [lo, hi]; ``lo`` where that root is not real.

    With a, b >= 0 the quadratic rises for x >= 0, so this is its only
    non-negative root where it has one, and the form subtracts no
    near-equal terms.
    """
    den = b + math.sqrt(max(b * b - 4.0 * a * c, 0.0))
    root = -2.0 * c / den if den > 0.0 else lo
    # a NaN root fails the comparison and clips to lo
    return min(root, hi) if root > lo else lo


@dataclass(frozen=True)
class MarcOptimum:
    """Best sum rate, with the maximizing configuration; ``evaluations``
    counts the points rated, and the exact search is never ``incomplete``."""

    sum_rate: float
    rates: MarcRates
    config: MarcConfig
    evaluations: int
    incomplete: bool


def marc_optimize(
    cfg: MarcConfig,
    which: str = "omniscient",
    sweep_source_power: tuple = None,
) -> MarcOptimum:
    """Maximize the sum rate exactly.

    ``which='omniscient'`` searches the symmetric split alpha_1 = alpha_2
    with beta fixed at 1/2: r3 falls and r4 rises with u = sqrt(alpha), so
    the optimum is an end of [0, 1] or the crossing, a quadratic in u.
    ``which='onehop'`` has no splits; pass ``sweep_source_power=(lo, hi)``
    to search the common source power P_1 = P_2 instead: r3 rises and r4
    falls with it, and their crossing is a quadratic in the power.  Each
    search rates both ends and the crossing clipped into the interval, and
    keeps the first best of the three.
    """
    if which not in ("onehop", "omniscient"):
        raise ValueError("which must be 'onehop' or 'omniscient'")

    # ``fields`` maps the searched values, floats or (n,) arrays alike, to
    # the MarcConfig fields the search varies
    if which == "onehop":
        if sweep_source_power is None:
            rates = marc_onehop_sumrate(cfg)
            return MarcOptimum(rates.sum_rate, rates, cfg, 1, False)
        lo, hi = map(float, sweep_source_power)
        sumrate, rates_of = marc_onehop_sumrate, _onehop_rates

        def fields(p):
            return dict(p1=p, p2=p)

        # every power searched lies between the ends, so valid ends make
        # every configuration searched valid
        for end in (lo, hi):
            replace(cfg, **fields(end))
        # p g3 / n3 = g34 P3 / (n4 + p g4)
        g3 = cfg.gain(cfg.d13) + cfg.gain(cfg.d23)
        g4 = cfg.gain(cfg.d14) + cfg.gain(cfg.d24)
        crossing = _crossing(g3 * g4, g3 * cfg.n4, -cfg.n3 * cfg.gain(cfg.d34) * cfg.p3,
                             min(lo, hi), max(lo, hi))
    else:
        lo, hi = 0.0, 1.0
        sumrate, rates_of = marc_omniscient_sumrate, _omniscient_rates

        def fields(a):
            return dict(alpha1=a, alpha2=a, beta1=0.5, beta2=0.5)

        # (1 - u^2) relay = direct + u coherent, each an SNR
        g34 = cfg.gain(cfg.d34)
        relay = (cfg.gain(cfg.d13) * cfg.p1 + cfg.gain(cfg.d23) * cfg.p2) / cfg.n3
        direct = (cfg.gain(cfg.d14) * cfg.p1 + cfg.gain(cfg.d24) * cfg.p2 + g34 * cfg.p3) / cfg.n4
        coherent = 2.0 * (math.sqrt(0.5 * cfg.p1 * cfg.p3 * cfg.gain(cfg.d14) * g34)
                          + math.sqrt(0.5 * cfg.p2 * cfg.p3 * cfg.gain(cfg.d24) * g34)) / cfg.n4
        crossing = _crossing(relay, coherent, direct - relay, 0.0, 1.0) ** 2

    points = np.array([lo, hi, crossing])
    best = float(points[int(np.argmax(np.minimum(*rates_of(cfg, **fields(points)))))])
    best_cfg = replace(cfg, **fields(best))
    rates = sumrate(best_cfg)
    return MarcOptimum(rates.sum_rate, rates, best_cfg, points.size, False)

"""Common rates for the four-node Gaussian broadcast relay channel.

Node 1 is the source, node 2 the relay, nodes 3 and 4 the destinations.
The destinations and the relay form a unit equilateral triangle and the
source sits d_12 behind the relay on its bisector, so that
d_13^2 = d_14^2 = 1/4 + (sqrt(3)/2 + d_12)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelValidationError
from .marc import _crossing


@dataclass(frozen=True)
class BrcConfig:
    """Powers, source-relay distance, and the cooperation split alpha."""

    p1: float = 10.0
    p2: float = 10.0
    n2: float = 1.0
    n3: float = 1.0
    n4: float = 1.0
    d12: float = 1.0
    alpha: float = 0.0
    kappa: float = 1.0
    eta: float = 2.0

    def __post_init__(self):
        # chained scalar comparisons, each False for NaN; the upper bounds
        # reject infinities
        inf = math.inf
        if not (0.0 <= self.p1 < inf and 0.0 <= self.p2 < inf):
            raise ChannelValidationError("transmit powers must be non-negative and finite")
        if not (0.0 < self.n2 < inf and 0.0 < self.n3 < inf and 0.0 < self.n4 < inf):
            raise ChannelValidationError("noise powers must be positive and finite")
        if not 0.0 < self.d12 < inf:
            raise ChannelValidationError("d12 must be positive and finite")
        if not 0.0 <= self.alpha <= 1.0:
            raise ChannelValidationError("alpha must lie in [0, 1]")
        if not (0.0 < self.kappa < inf and 1.0 < self.eta < inf):
            raise ChannelValidationError("kappa must be positive and eta > 1, both finite")

    # relay and destinations at unit equilateral spacing
    d23 = 1.0
    d24 = 1.0
    d34 = 1.0

    @property
    def d13(self) -> float:
        return math.sqrt(0.25 + (math.sqrt(3.0) / 2.0 + self.d12) ** 2)

    d14 = d13

    def gain(self, d: float) -> float:
        return self.kappa * d ** (-self.eta)


@dataclass(frozen=True)
class BrcRates:
    """Per-receiver reception rates and the common-rate bound."""

    r2: float
    r3: float
    r4: float
    common_rate: float


def brc_onehop_common_rate(cfg: BrcConfig) -> BrcRates:
    """One-hop myopic decode-forward: a point-to-point hop into the relay
    cascaded with a broadcast hop; the source interferes at the
    destinations."""
    r2 = 0.5 * math.log2(1.0 + cfg.gain(cfg.d12) * cfg.p1 / cfg.n2)
    r3 = 0.5 * math.log2(
        1.0 + cfg.gain(cfg.d23) * cfg.p2 / (cfg.n3 + cfg.gain(cfg.d13) * cfg.p1)
    )
    r4 = 0.5 * math.log2(
        1.0 + cfg.gain(cfg.d24) * cfg.p2 / (cfg.n4 + cfg.gain(cfg.d14) * cfg.p1)
    )
    return BrcRates(r2, r3, r4, min(r2, r3, r4))


def _omniscient_rates(cfg: BrcConfig, alpha):
    """(r2, r3, r4) under omniscient decoding, elementwise over alpha (a
    float or an array); every other parameter comes from ``cfg``."""
    r2 = 0.5 * np.log2(
        1.0 + cfg.gain(cfg.d12) * (1.0 - alpha) * cfg.p1 / cfg.n2
    )

    def dest_rate(d1x, d2x, noise):
        amplitude = (
            np.sqrt(cfg.gain(d1x) * alpha * cfg.p1)
            + math.sqrt(cfg.gain(d2x) * cfg.p2)
        )
        received = (
            cfg.gain(d1x) * (1.0 - alpha) * cfg.p1 + amplitude * amplitude
        )
        return 0.5 * np.log2(1.0 + received / noise)

    return r2, dest_rate(cfg.d13, cfg.d23, cfg.n3), dest_rate(cfg.d14, cfg.d24, cfg.n4)


def brc_omniscient_common_rate(cfg: BrcConfig) -> BrcRates:
    """Omniscient decode-forward: the source spends alpha of its power
    coherently reinforcing the relay's transmission."""
    r2, r3, r4 = map(float, _omniscient_rates(cfg, cfg.alpha))
    return BrcRates(r2, r3, r4, min(r2, r3, r4))


@dataclass(frozen=True)
class BrcOptimum:
    """Best common rate over alpha, with the maximizing configuration;
    ``evaluations`` counts the splits rated, and the exact search is never
    ``incomplete``."""

    common_rate: float
    rates: BrcRates
    config: BrcConfig
    evaluations: int
    incomplete: bool


def brc_optimize(cfg: BrcConfig) -> BrcOptimum:
    """Maximize the common rate over the split alpha in [0, 1] exactly.

    r2 falls with u = sqrt(alpha) and both destination rates rise; the
    destinations hear the same power, so the noisier one is the lower.  The
    optimum is an end of [0, 1] or the crossing of r2 with that
    destination's rate, a quadratic in u.  The search rates both ends and
    the crossing clipped into [0, 1], and keeps the first best of the three.
    """
    # (1 - u^2) relay = direct + u coherent, each an SNR
    noise = max(cfg.n3, cfg.n4)
    relay = cfg.gain(cfg.d12) * cfg.p1 / cfg.n2
    direct = (cfg.gain(cfg.d13) * cfg.p1 + cfg.gain(cfg.d23) * cfg.p2) / noise
    coherent = 2.0 * math.sqrt(cfg.gain(cfg.d13) * cfg.gain(cfg.d23) * cfg.p1 * cfg.p2) / noise
    alphas = np.array([0.0, 1.0, _crossing(relay, coherent, direct - relay, 0.0, 1.0) ** 2])
    best = float(alphas[int(np.argmax(np.minimum.reduce(_omniscient_rates(cfg, alphas))))])
    best_cfg = replace(cfg, alpha=best)
    rates = brc_omniscient_common_rate(best_cfg)
    return BrcOptimum(rates.common_rate, rates, best_cfg, alphas.size, False)

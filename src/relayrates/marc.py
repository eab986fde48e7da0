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
from .optimizer import OptimizerConfig, _grid_candidates, _refine

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


@dataclass(frozen=True)
class MarcOptimum:
    """Best sum rate found, with the maximizing configuration."""

    sum_rate: float
    rates: MarcRates
    config: MarcConfig
    evaluations: int
    incomplete: bool


def marc_optimize(
    cfg: MarcConfig,
    which: str = "omniscient",
    opt: OptimizerConfig = OptimizerConfig(),
    sweep_source_power: tuple = None,
    asymmetric: bool = False,
) -> MarcOptimum:
    """Maximize the sum rate.

    ``which='omniscient'`` searches the symmetric split alpha_1 = alpha_2
    with beta fixed at 1/2 (a 3-D search over alpha_1, alpha_2 and beta_1
    behind ``asymmetric``).
    ``which='onehop'`` has no splits; pass ``sweep_source_power=(lo, hi)``
    to search the common source power P_1 = P_2 instead.
    """
    if which not in ("onehop", "omniscient"):
        raise ValueError("which must be 'onehop' or 'omniscient'")

    # ``fields`` maps the free coordinates, floats or (n,) arrays alike, to
    # the MarcConfig fields the search varies
    if which == "onehop":
        if sweep_source_power is None:
            rates = marc_onehop_sumrate(cfg)
            return MarcOptimum(rates.sum_rate, rates, cfg, 1, False)
        lo, hi = map(float, sweep_source_power)
        sumrate, rates_of, ndim = marc_onehop_sumrate, _onehop_rates, 1

        def fields(v):
            p = lo + v * (hi - lo)
            return dict(p1=p, p2=p)
    elif asymmetric:
        sumrate, rates_of, ndim = marc_omniscient_sumrate, _omniscient_rates, 3

        def fields(a1, a2, b1):
            return dict(alpha1=a1, alpha2=a2, beta1=b1, beta2=1.0 - b1)
    else:
        sumrate, rates_of, ndim = marc_omniscient_sumrate, _omniscient_rates, 1

        def fields(a):
            return dict(alpha1=a, alpha2=a, beta1=0.5, beta2=0.5)

    # each parameter is monotone in its coordinate, so if the two corners
    # of the box are valid configurations, so is every point searched
    for corner in (0.0, 1.0):
        replace(cfg, **fields(*[corner] * ndim))
    best, evals, _, incomplete = _refine(
        lambda axes: np.minimum(*rates_of(cfg, **fields(*_grid_candidates(axes).T))), ndim, opt
    )
    best_cfg = replace(cfg, **fields(*best.tolist()))
    rates = sumrate(best_cfg)
    return MarcOptimum(rates.sum_rate, rates, best_cfg, evals, incomplete)

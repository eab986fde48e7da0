"""Reception rates for k-hop and omniscient decode-forward on the Gaussian
multiple-relay channel.

This module defines the k-hop window once (``_window``); ``kernel`` and
``asymptotics`` evaluate through it.  Positions are 1-based places in the
relay order; the transmitter at position p introduces sub-signal p.

- A receiver at position p decodes the sub-signals at positions p-k..p-1,
  coherently combining every transmitter that carries them, cancels the
  sub-signals at positions p..p+k-1 (its own among them), and treats
  everything further upstream or downstream as noise.
- Sub-signal q is carried by the transmitters at positions q-k+1..q; the
  one at position q-j spends fraction ``row[j]`` of its power on it.  A
  receiver's own transmissions all fall in its cancel band.

The evaluation (``_band_powers``) works on blocks of receivers in banded
amplitude form: ``a[r, q, j] = sqrt(gain * P)[r, q-j] * sqrt(frac)[q-j, j]``,
summed over carriers j as ``(sum_j a)**2`` when copies combine coherently
and as ``sum_j a**2`` under fading.  The decode band gives the signal
power, the bands outside decode and cancel the interference.  A failed relay
transmits nothing while every receiver still decodes as designed: its
carriers leave the decoded sums, its designed interference stays, and
cancelling what it never sent adds that power as mismatch noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelValidationError,
    NetworkGeometry,
    PowerConfig,
    PropagationModel,
)
from .coding import CombiningMode, Permutation, SplitMatrix

EFFICIENCY_SLACK = 1e-9

# element budget of one receiver block, n_receivers * (T-1) * k: each of the
# few block-sized temporaries then stays at a couple of MiB
_BLOCK_ELEMENTS = 1 << 18

# bands of the window, per (receiver, sub-signal)
_DECODE = 0
_CANCEL = 1
_NOISE = 2


@dataclass(frozen=True)
class ReceptionRecord:
    """Signal/interference decomposition and rate at one receiver."""

    node: int
    p_sig: float
    p_int: float
    noise: float
    rate: float


@dataclass(frozen=True)
class RateReport:
    """Per-receiver reception rates plus the max-min bottleneck."""

    records: tuple
    bottleneck: int
    rate: float

    def record(self, node: int) -> ReceptionRecord:
        for rec in self.records:
            if rec.node == node:
                return rec
        raise KeyError(node)


def point_to_point_rate(p_received: float, noise: float) -> float:
    """Gaussian channel rate 0.5 * log2(1 + P/N) in bits per channel use."""
    if noise <= 0.0:
        raise ChannelValidationError("noise power must be positive")
    if p_received < 0.0:
        raise ChannelValidationError("received power must be non-negative")
    return 0.5 * math.log2(1.0 + p_received / noise)


@dataclass(frozen=True)
class Efficiency:
    """Ratio of a k-hop rate to the omniscient rate on the same channel."""

    ratio: float
    exceeds_unity: bool


def efficiency(rate_khop: float, rate_omniscient: float) -> Efficiency:
    if rate_omniscient <= 0.0:
        raise ChannelValidationError("omniscient rate must be positive")
    ratio = rate_khop / rate_omniscient
    return Efficiency(ratio, ratio > 1.0 + EFFICIENCY_SLACK)


def _window(pos_r: np.ndarray, t_count: int, k: int):
    """The k-hop window of the receivers at positions ``pos_r``.

    Returns ``band[r, q-1]`` (``_DECODE``, ``_CANCEL`` or ``_NOISE``) for
    sub-signals q = 1..T-1, the carrier positions ``tx[j, q-1] = q-j`` and
    ``carried[j, q-1]``, whether that carrier exists.
    """
    offset = np.arange(-k, k)                  # q - p: decode < 0 <= cancel
    q = pos_r[:, None] + offset
    r, m = np.nonzero((q >= 1) & (q < t_count))
    band = np.full((pos_r.size, t_count - 1), _NOISE, dtype=np.int8)
    band[r, q[r, m] - 1] = np.where(offset[m] < 0, _DECODE, _CANCEL)
    tx = np.arange(1, t_count) - np.arange(k)[:, None]
    return band, tx, tx >= 1


def _block_size(t_count: int, k: int) -> int:
    """Receivers per block under the ``_BLOCK_ELEMENTS`` budget."""
    return max(1, _BLOCK_ELEMENTS // ((t_count - 1) * k))


def _band_powers(gain_rows, frac: np.ndarray, pos_r: np.ndarray, coherent: bool,
                 failed: np.ndarray = None):
    """Signal and interference power at the receivers at positions ``pos_r``.

    ``gain_rows(lo, hi)`` returns gain * transmit power from the transmitters
    at positions 1..T-1 (columns) to receivers ``pos_r[lo:hi]`` (rows), zero
    at a receiver's own position.  ``frac[p-1, j]`` is the fraction the
    transmitter at position p spends on sub-signal p+j, and ``failed[p-1]``
    marks silent transmitters (``None``: no failures).
    """
    t_count, k = frac.shape[0] + 1, frac.shape[1]
    n = pos_r.size
    p_sig = np.empty(n)
    p_int = np.empty(n)
    step = _block_size(t_count, k)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        band, tx, carried = _window(pos_r[lo:hi], t_count, k)
        col = np.maximum(tx, 1) - 1
        root_frac = np.where(carried, np.sqrt(frac[col, np.arange(k)[:, None]]), 0.0)
        amp = np.sqrt(gain_rows(lo, hi))[:, col] * root_frac
        decode = band == _DECODE
        if failed is not None:
            lost = failed[col]
            mismatch = np.where((band == _CANCEL)[:, None, :] & lost, amp * amp, 0.0)
            amp[decode[:, None, :] & lost] = 0.0
        term = np.square(amp.sum(axis=1)) if coherent else np.square(amp).sum(axis=1)
        p_sig[lo:hi] = np.where(decode, term, 0.0).sum(axis=1)
        p_int[lo:hi] = np.where(band == _NOISE, term, 0.0).sum(axis=1)
        if failed is not None:
            p_int[lo:hi] += mismatch.sum(axis=(1, 2))
    return p_sig, p_int


def _evaluate(geometry, prop, power, splits, k, perm, mode, receivers, failed):
    """Reception records of the given receiver node ids."""
    t_count = geometry.node_count
    if failed and not all(2 <= f <= t_count - 1 for f in failed):
        raise ChannelValidationError("only relays (2..T-1) can fail")
    perm = perm or Permutation.identity(t_count)
    splits.validate_for(t_count, k, perm)

    order = np.asarray(perm.order)
    tx_nodes = order[:-1]
    position = np.argsort(order) + 1
    rcv = np.asarray(receivers)
    frac = np.zeros((t_count - 1, k))
    for p, node in enumerate(perm.order[:-1]):
        row = splits.row(node)
        frac[p, :len(row)] = row
    failed_pos = np.isin(tx_nodes, list(failed)) if failed else None

    def gain_rows(lo, hi):
        d = geometry.distances[rcv[lo:hi, None] - 1, tx_nodes - 1]
        d = np.where(d > 0.0, d, np.inf)  # no self-gain
        return prop.kappa * d ** (-prop.eta) * power.transmit_powers[tx_nodes - 1]

    p_sig, p_int = _band_powers(gain_rows, frac, position[rcv - 1],
                                mode is CombiningMode.COHERENT, failed_pos)
    noise = power.noise_powers[rcv - 2]
    rates = 0.5 * np.log2(1.0 + p_sig / (noise + p_int))
    return tuple(map(ReceptionRecord, rcv.tolist(), p_sig.tolist(), p_int.tolist(),
                     noise.tolist(), rates.tolist()))


def reception_rate(
    geometry: NetworkGeometry,
    prop: PropagationModel,
    power: PowerConfig,
    splits: SplitMatrix,
    k: int,
    perm: Permutation = None,
    mode: CombiningMode = CombiningMode.COHERENT,
    receiver: int = 2,
    failed: frozenset = frozenset(),
) -> ReceptionRecord:
    """Reception rate at one receiver (node id 2..T).

    With a non-empty ``failed`` set the failed relays transmit nothing while
    every surviving receiver still decodes as originally designed (see the
    module docstring).
    """
    t_count = geometry.node_count
    if receiver == 1:
        raise ChannelValidationError("the source does not decode")
    if not 2 <= receiver <= t_count:
        raise ChannelValidationError(f"receiver must be in 2..{t_count}")
    return _evaluate(geometry, prop, power, splits, k, perm, mode,
                     (receiver,), failed)[0]


def rate_report(
    geometry: NetworkGeometry,
    prop: PropagationModel,
    power: PowerConfig,
    splits: SplitMatrix,
    k: int,
    perm: Permutation = None,
    mode: CombiningMode = CombiningMode.COHERENT,
    failed: frozenset = frozenset(),
) -> RateReport:
    """Reception rates at every receiver; the overall rate is the minimum.

    Ties for the bottleneck go to the lowest node id.
    """
    records = _evaluate(geometry, prop, power, splits, k, perm, mode,
                        range(2, geometry.node_count + 1), failed)
    best = min(records, key=lambda rec: (rec.rate, rec.node))
    return RateReport(records, best.node, best.rate)


def failure_impact(
    geometry: NetworkGeometry,
    prop: PropagationModel,
    power: PowerConfig,
    splits: SplitMatrix,
    k: int,
    failed=frozenset(),
    perm: Permutation = None,
    mode: CombiningMode = CombiningMode.COHERENT,
) -> RateReport:
    """Rates after the given relays stop transmitting, unbeknownst to the
    surviving receivers."""
    failed = frozenset(int(f) for f in failed)
    return rate_report(geometry, prop, power, splits, k, perm, mode, failed)

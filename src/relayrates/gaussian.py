"""Reception rates for k-hop and omniscient decode-forward on the Gaussian
multiple-relay channel.

This module defines the k-hop window once (``_window``, ``_carriers``) and
evaluates it twice: ``_band_powers`` for any channel, behind ``kernel``, and
``_lag_powers`` for the unit-spacing chain of ``asymptotics``.  Positions
are 1-based places in the relay order; the transmitter at position p
introduces sub-signal p.

- A receiver at position p decodes the sub-signals at positions p-k..p-1,
  coherently combining every transmitter that carries them, cancels the
  sub-signals at positions p..p+k-1 (its own among them), and treats
  everything further upstream or downstream as noise.
- Sub-signal q is carried by the transmitters at positions q-k+1..q; the
  one at position q-j spends fraction ``row[j]`` of its power on it.  A
  receiver's own transmissions all fall in its cancel band.

The engine (``_band_powers``) evaluates blocks of receivers against any
number of candidate split matrices at once.  Per sub-signal q it contracts
the carriers j in one matrix product, (receiver, j) @ (j, candidate), of
``sqrt(gain * P)[r, q-j]`` and ``sqrt(frac)[q-j, j]`` squared afterwards
when copies combine coherently, or of their squares (powers add) under
fading.  The decode band gives the signal power, the bands outside decode
and cancel the interference.  A failed relay transmits nothing while every
receiver still decodes as designed: its carriers leave the decoded sums,
its designed interference stays, and cancelling what it never sent adds
that power as mismatch noise.

On the identity-ordered unit-spacing chain the gain from position t to a
receiver at position p is G(p-t), a function of the lag alone, and so is the
band of sub-signal q at receiver p.  ``_lag_powers`` expands the coherent
square over carrier pairs j <= j': with the pair kernel
K(l) = c * sqrt(G(l+j) G(l+j')) (c = 1 when j = j', else 2) and the pair
input y(q) = sqrt(x[q, j] x[q, j']) (x the fraction carrier j spends on q,
zero where it is absent), a band power at receiver p is the sum over pairs of
(K masked to the band's lags) convolved with y, at lag p - q.  The noise band
costs one direct ``np.convolve`` per pair, O(T^2) multiply-adds in C with
O(T) memory; the decode band spans k lags and costs O(T k).  Every term is a
product of non-negative numbers, so a power is exactly 0 where no carrier
reaches the band and never negative (an FFT convolution would give neither).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .channel import ChannelValidationError, NetworkGeometry, PowerConfig, PropagationModel
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


def _window(pos_r: np.ndarray, t_count: int, k: int) -> np.ndarray:
    """``band[r, q-1]`` (``_DECODE``, ``_CANCEL`` or ``_NOISE``) of sub-signals
    q = 1..T-1 at the receivers at positions ``pos_r``."""
    offset = np.arange(-k, k)                  # q - p: decode < 0 <= cancel
    q = pos_r[:, None] + offset
    r, m = np.nonzero((q >= 1) & (q < t_count))
    band = np.full((pos_r.size, t_count - 1), _NOISE, dtype=np.int8)
    band[r, q[r, m] - 1] = np.where(offset[m] < 0, _DECODE, _CANCEL)
    return band


def _carriers(t_count: int, k: int) -> np.ndarray:
    """``tx[q-1, j] = q-j``, the position of carrier j of sub-signal q; the
    carrier exists where ``tx >= 1``."""
    return np.arange(1, t_count)[:, None] - np.arange(k)


def _layout(geometry, prop, power, k: int, perm: Permutation, receivers: np.ndarray):
    """Gain * transmit power from the transmitters at positions 1..T-1
    (columns) to the receiver node ids ``receivers`` (rows, zero at a
    receiver's own position), the receivers' positions, and ``col[p-1, j]``,
    the column of ``SplitMatrix.as_flat`` holding the fraction position p
    spends on sub-signal p+j (past a row's end: its last column, never read)."""
    t_count = geometry.node_count
    order = np.asarray(perm.order)
    tx = order[:-1]
    d = geometry.distances[tx - 1][:, receivers - 1].T
    d = np.where(d > 0.0, d, np.inf)  # no self-gain
    gain = prop.kappa * d ** (-prop.eta) * power.transmit_powers[tx - 1]
    length = np.minimum(k, t_count - np.arange(1, t_count))   # by position
    by_node = np.empty_like(length)
    by_node[tx - 1] = length
    start = (np.cumsum(by_node) - by_node)[tx - 1, None]
    col = start + np.minimum(np.arange(k), length[:, None] - 1)
    return gain, np.argsort(order)[receivers - 1] + 1, col


def _block_size(t_count: int, width: int) -> int:
    """Rows per block under the ``_BLOCK_ELEMENTS`` budget when a row holds
    (T-1) * ``width`` elements: receivers of one split per block at k."""
    return max(1, _BLOCK_ELEMENTS // ((t_count - 1) * width))


def _band_powers(gain: np.ndarray, frac: np.ndarray, pos_r: np.ndarray,
                 coherent: bool, failed: np.ndarray = None):
    """Signal and interference power, (receivers, candidates) each, at the
    receivers at positions ``pos_r``.

    ``gain`` holds the ``_layout`` gain rows of those receivers,
    ``frac[p-1, j, c]`` the fraction the transmitter at position p spends on
    sub-signal p+j in candidate c, and ``failed[p-1]`` marks silent
    transmitters (``None``: no failures)."""
    t_count, k, n = frac.shape[0] + 1, frac.shape[1], frac.shape[2]
    tx = _carriers(t_count, k)
    absent, src = tx < 1, np.maximum(tx, 1) - 1
    amp = np.sqrt if coherent else (lambda v: v)
    x = frac[src, np.arange(k)]               # x[q-1, j, c]: carrier j on q
    x_amp = amp(x)
    if failed is not None:
        lost = (failed[src] & ~absent)[:, :, None]
        x_live, x_lost = np.where(lost, 0.0, x_amp), np.where(lost, x, 0.0)

    def contract(rows, x_block, square):
        # the transposed rows gathered as (q, j, r), absent carriers zeroed,
        # times (q, j, c) through a (q, r, j) view: (q, r, c)
        g = rows.T[src]
        g[absent] = 0.0
        term = np.matmul(g.swapaxes(1, 2), x_block)
        return np.square(term, out=term) if square else term

    p_sig, p_int = np.empty((2, pos_r.size, n))
    step = _block_size(t_count, max(k, n))
    for lo in range(0, pos_r.size, step):
        hi = min(pos_r.size, lo + step)
        bands = _window(pos_r[lo:hi], t_count, k).T
        rows = gain[lo:hi]

        def band_sum(band, term):
            return np.einsum("qr,qrn->rn", (bands == band).astype(float), term)

        term = contract(amp(rows), x_amp, coherent)
        p_int[lo:hi] = band_sum(_NOISE, term)
        if failed is not None:
            term = contract(amp(rows), x_live, coherent)
            # cancelling what a failed relay never sent leaves it as noise
            p_int[lo:hi] += band_sum(_CANCEL, contract(rows, x_lost, False))
        p_sig[lo:hi] = band_sum(_DECODE, term)
    return p_sig, p_int


def _lag_powers(by_dist: np.ndarray, frac: np.ndarray):
    """Coherent signal and interference power at receivers 2..T of the
    identity-ordered chain whose gain * transmit power between positions d
    apart is ``by_dist[d]`` (d = 0..T-1, zero at d = 0).

    ``frac[p-1, j]`` is the fraction the transmitter at position p spends on
    sub-signal p+j.  Receiver p hears sub-signal q through gains that depend
    on the lag p - q alone, so each band power is a sum over carrier pairs of
    one convolution over sub-signals (see the module docstring)."""
    t_count, k = frac.shape[0] + 1, frac.shape[1]
    tx = _carriers(t_count, k)
    x = np.where(tx >= 1, frac[np.maximum(tx, 1) - 1, np.arange(k)], 0.0)
    # lags p - q from receiver 2 on sub-signal T-1 up to receiver T on
    # sub-signal 1, banded as at receiver T of a 2T-position chain
    lag = np.arange(3 - t_count, t_count)
    band = _window(np.array([t_count]), 2 * t_count, k)[0, -3::-1]
    noise = band == _NOISE
    dec = np.flatnonzero(band == _DECODE)
    # the full convolution with the decode lags holds receiver 2 at index sig0
    lo, hi, sig0 = dec[0], dec[-1] + 1, 1 - lag[dec[0]]
    # distances past T-1 only ever meet absent carriers
    amp = np.sqrt(np.append(by_dist, np.zeros(k)))
    p_sig, p_int = np.zeros((2, t_count - 1))
    for j, jj in combinations_with_replacement(range(tx.shape[1]), 2):
        kern = (1.0 if j == jj else 2.0) * amp[np.abs(lag + j)] * amp[np.abs(lag + jj)]
        y = np.sqrt(x[:, j] * x[:, jj])
        p_int += np.convolve(np.where(noise, kern, 0.0), y, "valid")
        p_sig += np.convolve(kern[lo:hi], y)[sig0:sig0 + t_count - 1]
    return p_sig, p_int


def _evaluate(geometry, prop, power, splits, k, perm, mode, receivers, failed):
    """Reception records of the given receiver node ids."""
    t_count = geometry.node_count
    if failed and not all(2 <= f <= t_count - 1 for f in failed):
        raise ChannelValidationError("only relays (2..T-1) can fail")
    perm = perm or Permutation.identity(t_count)
    splits.validate_for(t_count, k, perm)

    rcv = np.asarray(receivers)
    gain, pos_r, col = _layout(geometry, prop, power, k, perm, rcv)
    failed_pos = np.isin(perm.order[:-1], list(failed)) if failed else None
    p_sig, p_int = (v[:, 0] for v in _band_powers(
        gain, splits.as_flat()[col][:, :, None], pos_r,
        mode is CombiningMode.COHERENT, failed_pos))
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

"""Reception rates for k-hop and omniscient decode-forward on the Gaussian
multiple-relay channel.

This module defines the k-hop window once (``_window``, with the carriers of
``coding._carriers``) and the pair expansion of a band power once
(``_carrier_pairs``), and evaluates them three ways: ``_plan`` and
``_contract`` on any channel, for single split matrices and behind the batch
kernel of ``kernel`` where its pair features would grow too wide, the pair
features of that kernel for the other candidate batches, and
``_lag_powers`` for the unit-spacing chain of ``asymptotics``.  Positions are 1-based places in the
relay order; the transmitter at position p introduces sub-signal p.

- A receiver at position p decodes the sub-signals at positions p-k..p-1,
  coherently combining every transmitter that carries them, cancels the
  sub-signals at positions p..p+k-1 (its own among them), and treats
  everything further upstream or downstream as noise.
- Sub-signal q is carried by the transmitters at positions q-k+1..q; the
  one at position q-j spends fraction ``row[j]`` of its power on it.  A
  receiver's own transmissions all fall in its cancel band.

The engine evaluates blocks of receivers against any number of candidate
split matrices in two parts.  ``_plan`` gathers, once per receiver block,
everything that depends on the channel alone: the gains of every
(sub-signal, carrier, receiver), the band masks, and the candidate column
that holds each carrier's fraction.  ``_contract`` then takes one block of
candidates through caller-owned buffers: per sub-signal q it contracts the
carriers j in one matrix product, (receiver, j) @ (j, candidate), of ``sqrt(gain * P)[r, q-j]`` and
``sqrt(frac)[q-j, j]`` squared afterwards when copies combine coherently,
or of their squares (powers add) under fading.  The decode band gives the
signal power, the bands outside decode and cancel the interference.  A
failed relay transmits nothing while every receiver still decodes as
designed: its carriers leave the decoded sums, its designed interference
stays, and cancelling what it never sent adds that power as mismatch
noise.  Single split matrices (``rate_report``) plan each receiver block;
the batch kernel's contraction plans all receivers once per call.

The pair expansion.  Sub-signal q reaches a receiver with amplitude
sum_j a_j sqrt(x_j) over its carriers j, a_j = sqrt(gain * P) from carrier
j's transmitter and x_j the fraction it spends on q.  Coherently combined,
its power is a sum over the carrier pairs j <= j',

    (sum_j a_j sqrt(x_j))^2 = sum_{j <= j'} c a_j a_j' sqrt(x_j x_j'),

c = 1 where j = j' and 2 elsewhere: a weight that depends on the channel
alone times an input, sqrt(x_j x_j') (x_j itself where j = j'), that
depends on the split alone.  Under fading the powers add, which keeps only
the j = j' terms.  Every term is non-negative.  The batch kernel weighs
every (sub-signal, pair) input of a block of candidates, per receiver and
band, in one matrix product.

On the identity-ordered unit-spacing chain the gain from position t to a
receiver at position p is G(p-t), a function of the lag alone, and so is the
band of sub-signal q at receiver p.  ``_lag_powers`` takes the pair
expansion by lag: with the pair kernel K(l) = c * sqrt(G(l+j) G(l+j')) and
the pair input y(q) = sqrt(x[q, j] x[q, j']) (x the fraction carrier j
spends on q, zero where it is absent), a band power at receiver p is the
sum over pairs of (K masked to the band's lags) convolved with y, at lag
p - q.  The noise band (``_convolve_runs``) takes the longest run of equal
values in each pair input through prefix sums of the masked kernel, O(T),
and convolves only the entries before and after it directly, O(T) each: a
chain whose nodes all forward the same fraction has at most 3 runs per
pair, so its noise band costs O(T), while a per-node profile costs up to
O(T^2) multiply-adds in C.  The decode band spans k lags and costs O(T k).
Every term is a product or a prefix-sum difference of non-negative numbers,
so a power is exactly 0 where no carrier reaches the band and never
negative (an FFT convolution would give neither).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelValidationError, NetworkGeometry, PowerConfig, PropagationModel
from .coding import CombiningMode, Permutation, SplitMatrix, _carriers, _check_hop_depth

EFFICIENCY_SLACK = 1e-9

# element budget of one block, n_receivers * (T-1) * k for single splits and
# candidates * (T-1) ** 2 in the batch kernel: the few block-sized buffers of
# a single split or of the batch contraction then stay in a core's L2 cache
# (the batch kernel's pair features hold F / (T-1) times more per candidate,
# up to about k (k+1) / 2)
_BLOCK_ELEMENTS = 1 << 16

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


def _check_sizes(geometry, power, perm: Permutation) -> None:
    """Raise ``ChannelValidationError`` unless the power config (T-1 transmit
    powers) and the relay order are for the geometry's T nodes."""
    for what, nodes in (("power config", power.transmit_powers.size + 1),
                        ("permutation", perm.node_count)):
        if nodes != geometry.node_count:
            raise ChannelValidationError(
                f"the {what} is for {nodes} nodes; the geometry has {geometry.node_count}")


def _layout(geometry, prop, power, k: int, perm: Permutation):
    """Gain * transmit power from the transmitters at positions 1..T-1
    (columns) to the receivers 2..T by node id (rows, zero at a receiver's
    own position), the receivers' positions, and ``col[p-1, j]``, the column
    of ``SplitMatrix.as_flat`` holding the fraction position p spends on
    sub-signal p+j (past a row's end: its last column, never read).
    Checks the sizes and k first: nothing is indexed or allocated past them."""
    _check_sizes(geometry, power, perm)
    t_count = geometry.node_count
    _check_hop_depth(t_count, k)
    order = np.asarray(perm.order)
    tx = order[:-1]
    # a C-order copy, turned into gains in place: receiver rows contiguous,
    # as the engine's receiver blocks and compile_chain's gathers read them
    gain = geometry.distances[tx - 1, 1:].T.copy()
    gain[gain == 0.0] = np.inf  # no self-gain
    np.power(gain, -prop.eta, out=gain)
    np.multiply(prop.kappa, gain, out=gain)
    np.multiply(gain, power.transmit_powers[tx - 1], out=gain)
    length = np.minimum(k, t_count - np.arange(1, t_count))   # by position
    by_node = np.empty_like(length)
    by_node[tx - 1] = length
    start = (np.cumsum(by_node) - by_node)[tx - 1, None]
    col = start + np.minimum(np.arange(k), length[:, None] - 1)
    return gain, np.argsort(order)[1:] + 1, col


def _block_size(t_count: int, width: int) -> int:
    """Rows per block under the ``_BLOCK_ELEMENTS`` budget when a row holds
    (T-1) * ``width`` elements: receivers of one split per block at k."""
    return max(1, _BLOCK_ELEMENTS // ((t_count - 1) * width))


@dataclass(frozen=True)
class _Plan:
    """What the engine needs of one receiver block, independent of the
    candidates: built once, then contracted with any number of candidate
    blocks by ``_contract``."""

    gain: np.ndarray        # (q, r, j) amplitude gain of carrier j of q at r, 0 if absent
    decode: np.ndarray      # (q, r) 1.0 where r decodes q
    noise: np.ndarray       # (q, r) 1.0 where q is noise at r
    col: np.ndarray         # (q, j) candidate column of carrier j's fraction on q
    coherent: bool
    # with a failure set only
    lost: np.ndarray = None       # (q, j) carrier j of q is silent
    cancel: np.ndarray = None     # (q, r) 1.0 where r cancels q
    gain_pow: np.ndarray = None   # (q, r, j) ``gain`` as power


def _plan(gain: np.ndarray, pos_r: np.ndarray, split_col: np.ndarray,
          coherent: bool, failed: np.ndarray = None) -> _Plan:
    """Plan the receivers at positions ``pos_r`` whose ``_layout`` gain rows
    are ``gain``; ``split_col`` is the ``_layout`` column map and
    ``failed[p-1]`` marks silent transmitters (``None``: no failures)."""
    t_count, k = split_col.shape[0] + 1, split_col.shape[1]
    tx = _carriers(t_count, k)
    absent, src = tx < 1, np.maximum(tx, 1) - 1
    # the transposed rows gathered once as (q, j, r), absent carriers zeroed,
    # and read through a (q, r, j) view: a contiguous (q, r, j) copy sends a
    # single split down BLAS's other matrix-vector variant, which rounds
    # differently in the last bit
    g = gain.T[src]
    g[absent] = 0.0
    bands = _window(pos_r, t_count, k).T
    lost = cancel = gain_pow = None
    if failed is not None:
        lost = failed[src] & ~absent
        cancel = (bands == _CANCEL).astype(float)
        gain_pow = (g.copy() if coherent else g).swapaxes(1, 2)
    if coherent:
        np.sqrt(g, out=g)
    return _Plan(g.swapaxes(1, 2), (bands == _DECODE).astype(float),
                 (bands == _NOISE).astype(float), split_col[src, np.arange(k)],
                 coherent, lost, cancel, gain_pow)


def _scratch_size(t_count: int, k: int, n_receivers: int, n: int) -> int:
    """Elements of the ``_contract`` scratch buffer for up to ``n_receivers``
    receivers and ``n`` candidates."""
    return (t_count - 1) * n * (2 * k + n_receivers)


def _contract(plan: _Plan, cands_t: np.ndarray, p_sig: np.ndarray,
              p_int: np.ndarray, scratch: np.ndarray) -> None:
    """Signal and interference power, (receivers, candidates) each, into
    ``p_sig`` and ``p_int`` for the candidates ``cands_t`` (flat split
    column by candidate), through a ``_scratch_size`` buffer ``scratch``.

    Per sub-signal q the carriers j contract in one matrix product,
    (r, j) @ (j, candidate), squared when copies combine coherently; each
    band then sums its sub-signals."""
    (q, r, k), n = plan.gain.shape, cands_t.shape[1]
    size = q * k * n
    # x[q-1, j, c]: carrier j on q; the columns are in range, and with "clip"
    # np.take writes straight into out instead of through a buffer
    x = np.take(cands_t, plan.col, axis=0, out=scratch[:size].reshape(q, k, n),
                mode="clip")
    x_amp = np.sqrt(x, out=scratch[size:2 * size].reshape(q, k, n)) if plan.coherent else x
    term = scratch[2 * size:2 * size + q * r * n].reshape(q, r, n)

    def contract(gain, x_block, square):
        np.matmul(gain, x_block, out=term)
        if square:
            np.square(term, out=term)

    contract(plan.gain, x_amp, plan.coherent)
    np.einsum("qr,qrn->rn", plan.noise, term, out=p_int)
    if plan.lost is not None:
        lost = plan.lost[:, :, None]
        x_lost = np.where(lost, x, 0.0)
        contract(plan.gain, np.where(lost, 0.0, x_amp), plan.coherent)
    np.einsum("qr,qrn->rn", plan.decode, term, out=p_sig)
    if plan.lost is not None:
        # cancelling what a failed relay never sent leaves it as noise
        contract(plan.gain_pow, x_lost, False)
        p_int += np.einsum("qr,qrn->rn", plan.cancel, term)


def _convolve_runs(kn: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.convolve(kn, y, "valid")`` for non-negative ``kn`` and ``y``,
    ``y`` no longer than ``kn``.

    The longest run of equal values in ``y``, [a, b) with value c, adds
    c * (S[i+m-a] - S[i+m-b]) at output i, S the prefix sum of ``kn`` and m
    the size of ``y``; only the entries before and after it are convolved
    directly.  The cost is O(kn.size) for the run plus O(n) per entry
    outside it, n = kn.size - m + 1 outputs.  S never decreases, so every
    term is >= 0 and a window of zero kernel adds exactly 0."""
    m = y.size
    n = kn.size - m + 1
    # run boundaries: 0, every change of value, m
    change = np.ones(m + 1, dtype=bool)
    np.not_equal(y[1:], y[:-1], out=change[1:-1])
    edges = np.flatnonzero(change)
    run = int(np.argmax(edges[1:] - edges[:-1]))
    a, b = int(edges[run]), int(edges[run + 1])
    if y[a] > 0.0:
        s = np.zeros(kn.size + 1)
        np.cumsum(kn, out=s[1:])
        out = y[a] * (s[m - a:m - a + n] - s[m - b:m - b + n])
    else:
        out = np.zeros(n)
    for lo, hi in ((0, a), (b, m)):
        if hi > lo:
            out += np.convolve(kn[m - hi:m - lo + n - 1], y[lo:hi], "valid")
    return out


def _carrier_pairs(k: int):
    """The carrier pairs j <= j' of the pair expansion (see the module
    docstring) in row-major order, with their multiplicity c: ``(j, j', c)``
    arrays, c = 1 where j = j' and 2 elsewhere."""
    j, jj = np.triu_indices(k)
    return j, jj, np.where(j == jj, 1.0, 2.0)


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
    for j, jj, c in zip(*_carrier_pairs(k)):
        kern = c * amp[np.abs(lag + j)] * amp[np.abs(lag + jj)]
        y = np.sqrt(x[:, j] * x[:, jj])
        p_int += _convolve_runs(np.where(noise, kern, 0.0), y)
        p_sig += np.convolve(kern[lo:hi], y)[sig0:sig0 + t_count - 1]
    return p_sig, p_int


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
    return rate_report(geometry, prop, power, splits, k, perm, mode,
                       failed).record(receiver)


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
    t_count = geometry.node_count
    if failed and not all(2 <= f <= t_count - 1 for f in failed):
        raise ChannelValidationError("only relays (2..T-1) can fail")
    perm = perm or Permutation.identity(t_count)
    gain, pos_r, col = _layout(geometry, prop, power, k, perm)
    splits.validate_for(t_count, k, perm)
    failed_pos = np.isin(perm.order[:-1], list(failed)) if failed else None
    coherent = mode is CombiningMode.COHERENT
    flat = splits.as_flat()[:, None]
    n_r = t_count - 1
    p_sig, p_int = np.empty((2, n_r, 1))
    step = _block_size(t_count, k)
    scratch = np.empty(_scratch_size(t_count, k, min(step, n_r), 1))
    for lo in range(0, n_r, step):
        hi = min(n_r, lo + step)
        # one plan alive at a time
        _contract(_plan(gain[lo:hi], pos_r[lo:hi], col, coherent, failed_pos),
                  flat, p_sig[lo:hi], p_int[lo:hi], scratch)
    p_sig, p_int = p_sig[:, 0], p_int[:, 0]
    noise = power.noise_powers
    rates = 0.5 * np.log2(1.0 + p_sig / (noise + p_int))
    records = tuple(map(ReceptionRecord, range(2, t_count + 1), p_sig.tolist(),
                        p_int.tolist(), noise.tolist(), rates.tolist()))
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

"""Batch evaluation of max-min decode-forward rates over many split matrices.

The grid-refinement optimizer evaluates one channel at hundreds of thousands
of candidate splits: ``compile_chain`` lays the channel out once for the
engine of ``gaussian``, and the first ``batch_min_rate`` call on that
``ChainProblem`` turns the layout into weights over carrier-pair features
(``_pair_features``, the pair expansion of ``gaussian``), which the problem
then holds for every later call.  Each call rates blocks of candidates with
one matrix product each, (decode and noise rows of every receiver, feature)
@ (feature, candidate), into buffers it allocates once.  Where the features
would outgrow the candidates' fractions (coherent k >= 4) or the weights
their budget (k near T-1 on long chains), the call takes ``gaussian``'s
per-sub-signal contraction instead, planned on first use and likewise held
by the problem, and streams the blocks through it; ``rate_report`` always
takes the contraction.  The two agree to 1e-12 relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import NetworkGeometry, PowerConfig, PropagationModel
from .coding import CombiningMode, Permutation, _carriers
from .gaussian import (_CANCEL, _DECODE, _NOISE, _block_size, _carrier_pairs, _contract,
                       _layout, _plan, _scratch_size, _window)

# a batch takes the pair product while its F features number at most
# _PAIR_WIDTH times the n_cols fractions (every fading batch, coherent up to
# k = 3; coherent k = 4 from T = 12 on and k >= 6 ran at 0.3-0.9x the
# contraction) and its 2 (T-1) x F weights fit _PAIR_ELEMENTS (8 bytes
# each).  Fading at k = T-1, where the weights grow like T^3, then takes the
# contraction from T = 65 on, coherent k = 3 from T = 150 and k = 2 from
# T = 211; below that the weights stay within 4x the contraction's plan.
_PAIR_WIDTH = 2
_PAIR_ELEMENTS = 1 << 18

# candidate blocks go to BLAS zero-padded to a multiple of this many columns
_PAD = 8


@dataclass(frozen=True)
class ChainProblem:
    """One channel laid out for the engine (``gain``, ``pos_r``, ``split_col``
    from ``gaussian._layout``), with the window's (receiver, decoded or
    interfering sub-signal) groups as CSR over their carriers: the gain *
    fraction terms one candidate costs.

    Every receiver's entries are the same carrier template, sub-signals
    q = 1..T-1 in order and each one's carriers in ascending position, less
    the one contiguous slice of the sub-signals it cancels.

    The problem also holds its batch plan: its feature count, the pair
    weights of ``_pair_features`` or the contraction's ``_Plan``, each built
    by the first ``batch_min_rate`` call that needs it, never by
    ``compile_chain``."""

    n_receivers: int
    n_cols: int
    grp_ptr: np.ndarray     # int64, CSR pointers into the entry arrays
    ent_const: np.ndarray   # float64, gain * transmit power per carrier
    ent_col: np.ndarray     # int32, flat split-matrix column per carrier
    noise: np.ndarray       # float64 per receiver
    coherent: bool
    gain: np.ndarray        # receivers 2..T by transmitter position
    pos_r: np.ndarray       # positions of receivers 2..T
    split_col: np.ndarray   # flat split column by (transmitter position, slot)

    @cached_property
    def _pairs(self):
        """``_pair_features(self)``, built on first use."""
        return _pair_features(self)

    @cached_property
    def _n_features(self):
        """``_feature_count`` of this problem, counted once."""
        return _feature_count(self.n_receivers + 1, self.split_col.shape[1], self.coherent)

    @cached_property
    def _contraction(self):
        """The contraction's ``_Plan`` of every receiver, built on first use."""
        return _plan(self.gain, self.pos_r, self.split_col, self.coherent)


def compile_chain(
    geometry: NetworkGeometry,
    prop: PropagationModel,
    power: PowerConfig,
    k: int,
    perm: Permutation,
    mode: CombiningMode,
) -> ChainProblem:
    """Receivers by node id; CSR groups by sub-signal position, carriers in
    ascending position within a group.

    The entries come from one template: the min(k, q) carriers of each
    sub-signal q = 1..T-1 in order, at positions max(1, q-k+1)..q ascending,
    with their ``split_col`` columns.  A receiver keeps every template entry
    of the sub-signals it does not cancel (``_window``), so one (receiver,
    template entry) mask picks both the entries' columns and their gains,
    and a group's pointer is the running count of the carriers kept."""
    t_count = geometry.node_count
    gain, pos_r, split_col = _layout(geometry, prop, power, k, perm)
    tx = _carriers(t_count, k)[:, ::-1]         # ascending position per q
    present = tx >= 1
    pos = tx[present] - 1                       # 0-based carrier position
    col = split_col[pos, (np.arange(1, t_count)[:, None] - tx)[present]].astype(np.int32)
    width = present.sum(axis=1)                 # min(k, q) carriers of q
    kept = _window(pos_r, t_count, k) != _CANCEL
    keep = kept[:, np.repeat(np.arange(t_count - 1), width)]
    grp_ptr = np.zeros(np.count_nonzero(kept) + 1, dtype=np.int64)
    np.cumsum(np.broadcast_to(width, kept.shape)[kept], out=grp_ptr[1:])

    return ChainProblem(
        n_receivers=t_count - 1,
        n_cols=int(width.sum()),   # one template entry per split column
        grp_ptr=grp_ptr,
        ent_const=gain[:, pos][keep],
        ent_col=np.broadcast_to(col, keep.shape)[keep],
        noise=np.array(power.noise_powers, dtype=np.float64),
        coherent=mode is CombiningMode.COHERENT,
        gain=gain,
        pos_r=pos_r,
        split_col=split_col,
    )


def _feature_count(t_count: int, k: int, coherent: bool) -> int:
    """Features of ``_pair_features`` for a T-node chain at k hops, counted
    without building them: pair (j, j') on the T-1-j' sub-signals both
    carriers reach."""
    j, jj, _ = _carrier_pairs(k)
    return int(np.sum(t_count - 1 - (jj if coherent else jj[j == jj])))


def _pair_features(problem: ChainProblem):
    """The batch kernel's (2 n_r, F) weights over F features, the candidate
    columns ``cols`` of the first features and the ``slabs`` of the rest.

    A feature is one carrier pair (j, j') of the pair expansion (see
    ``gaussian``) on one sub-signal q: pair by pair, the j = j' pairs first
    (under fading the only ones), each over the sub-signals q = j'+1..T-1
    that both carriers reach.  The j = j' features are the fractions x[q, j]
    themselves, gathered from the candidate columns ``cols``; the slab of a
    pair j < j' is sqrt(x_j * x_j') of two slices of theirs, one
    ``(features, j rows, j' rows)`` triple of slices per pair in ``slabs``.
    Row r (decode) and row n_r + r (noise) weigh a feature by
    c * a_j * a_j', a_j = sqrt(gain * P) of carrier j at receiver r (gain * P
    itself where j = j'), where q falls in that band of receiver r."""
    gain, split_col = problem.gain, problem.split_col
    t_count, k = split_col.shape[0] + 1, split_col.shape[1]
    j, jj, c = _carrier_pairs(k)
    order = np.argsort(j != jj, kind="stable")[:None if problem.coherent else k]
    j, jj, c = j[order], jj[order], c[order]
    rows = t_count - 1 - jj                     # sub-signals of each pair
    start = np.cumsum(rows) - rows
    # per feature: its sub-signal, carriers and multiplicity
    q = np.concatenate([np.arange(lo, t_count) for lo in jj + 1])
    fj, fjj, fc = (v.repeat(rows) for v in (j, jj, c))
    p, pp = q - fj - 1, q - fjj - 1             # carrier positions, 0-based
    diag = fj == fjj
    amp = np.sqrt(gain)
    w = np.where(diag, gain[:, p], fc * amp[:, p] * amp[:, pp])
    bands = _window(problem.pos_r, t_count, k)[:, q - 1]
    # feature-major, fixed so that BLAS always takes the same path
    weights = np.asfortranarray(np.concatenate([np.where(bands == _DECODE, w, 0.0),
                                                np.where(bands == _NOISE, w, 0.0)]))
    slabs = [(slice(s, s + n), slice(start[a] + b - a, start[a] + b - a + n),
              slice(start[b], start[b] + n))
             for s, n, a, b in zip(start[k:], rows[k:], j[k:], jj[k:])]
    return weights, split_col[p[diag], fj[diag]], slabs


def _padded(m: int) -> int:
    """Columns of a block of ``m`` candidates, zero-padded to a multiple of
    ``_PAD``."""
    return -(-m // _PAD) * _PAD


def _pair_powers(problem: ChainProblem, width: int):
    """The block evaluator of the pair product: a function of a block of up
    to ``width`` candidates (one per row) that returns their signal and
    interference power, each (receivers, padded block), from one matrix
    product, the problem's ``_pair_features`` weights @ (feature,
    candidate)."""
    weights, cols, slabs = problem._pairs
    n_feat, n_rcv, n_cols = weights.shape[1], problem.n_receivers, problem.n_cols
    feat_buf = np.empty(n_feat * width)
    power_buf = np.empty(2 * n_rcv * width)

    def powers(block):
        m = block.shape[0]
        m_pad = _padded(m)
        feat = feat_buf[:n_feat * m_pad].reshape(n_feat, m_pad)
        feat[:n_cols, :m] = block.T[cols]
        feat[:n_cols, m:] = 0.0
        for pair, x_j, x_jj in slabs:
            np.multiply(feat[x_j], feat[x_jj], out=feat[pair])
        np.sqrt(feat[n_cols:], out=feat[n_cols:])
        out = power_buf[:2 * n_rcv * m_pad].reshape(2 * n_rcv, m_pad)
        np.matmul(weights, feat, out=out)
        return out[:n_rcv], out[n_rcv:]

    return powers


def _contracted_powers(problem: ChainProblem, width: int):
    """``_pair_powers``' block evaluator through ``gaussian``'s
    per-sub-signal contraction, with the problem's plan of all receivers."""
    n_rcv, n_cols = problem.n_receivers, problem.n_cols
    k = problem.split_col.shape[1]
    plan = problem._contraction
    scratch = np.empty(_scratch_size(n_rcv + 1, k, n_rcv, width))
    cand_buf = np.empty(n_cols * width)
    power_buf = np.empty((2, n_rcv * width))

    def powers(block):
        m = block.shape[0]
        m_pad = _padded(m)
        cands_t = cand_buf[:n_cols * m_pad].reshape(n_cols, m_pad)
        cands_t[:, :m] = block.T
        cands_t[:, m:] = 0.0
        p_sig, p_int = (v[:n_rcv * m_pad].reshape(n_rcv, m_pad) for v in power_buf)
        _contract(plan, cands_t, p_sig, p_int, scratch)
        return p_sig, p_int

    return powers


def _check_candidates(problem: ChainProblem, cands) -> np.ndarray:
    """``cands`` as a float64 (n, ``n_cols``) array, or ``ValueError``."""
    cands = np.asarray(cands, dtype=np.float64)
    if cands.ndim != 2 or cands.shape[1] != problem.n_cols:
        raise ValueError(f"candidates must have shape (n, {problem.n_cols}), "
                         f"got {cands.shape}")
    return cands


def _block_powers(problem: ChainProblem, cands: np.ndarray):
    """Each block of ``cands`` with its powers: ``(lo, m, p_sig, p_int)``
    for the ``m`` candidates from row ``lo`` on, each power (receivers,
    padded block) in the evaluator's buffers, valid until the next block.

    The evaluator is the pair product (``_pair_powers``), or, where the
    features would pass ``_PAIR_WIDTH`` or their weights ``_PAIR_ELEMENTS``,
    the contraction of ``gaussian`` (``_contracted_powers``); each call
    chooses between the two and sizes its blocks afresh, and the weights or
    the plan it takes are the problem's, built by the first call that needs
    them."""
    n, n_rcv = cands.shape[0], problem.n_receivers
    step = _block_size(n_rcv + 1, n_rcv)
    n_feat = problem._n_features
    pairs = (n_feat <= _PAIR_WIDTH * problem.n_cols
             and 2 * n_rcv * n_feat <= _PAIR_ELEMENTS)
    powers = (_pair_powers if pairs else _contracted_powers)(problem, _padded(min(step, n)))
    for lo in range(0, n, step):
        m = min(step, n - lo)
        yield (lo, m, *powers(cands[lo:lo + m]))


def batch_powers(problem: ChainProblem, cands: np.ndarray):
    """Signal and interference power of every receiver (by node id) for each
    candidate flat split vector (one per row): two (receivers, n) arrays,
    through the evaluator ``batch_min_rate`` takes.  Under fading both are
    linear in the fractions, so rating ``np.eye(n_cols)`` gives their
    coefficients."""
    cands = _check_candidates(problem, cands)
    p_sig, p_int = np.empty((2, problem.n_receivers, cands.shape[0]))
    for lo, m, sig, inter in _block_powers(problem, cands):
        p_sig[:, lo:lo + m] = sig[:, :m]
        p_int[:, lo:lo + m] = inter[:, :m]
    return p_sig, p_int


def batch_min_rate(problem: ChainProblem, cands: np.ndarray) -> np.ndarray:
    """Max-min rate over all receivers for each candidate flat split vector
    (one per row), evaluated a block of candidates at a time.

    Each block gives every receiver's signal and noise-band power in one
    matrix product over carrier-pair features, or through the contraction
    of ``gaussian`` (``_block_powers``); the lowest SINR over receivers
    then takes one log2 per candidate.  Blocks are zero-padded to a
    multiple of ``_PAD`` candidates: BLAS then runs every candidate through
    the same full-width tiles, so a rate does not depend on the block it
    falls in."""
    cands = _check_candidates(problem, cands)
    noise = problem.noise[:, None]
    sinr = np.empty(cands.shape[0])
    for lo, m, p_sig, p_int in _block_powers(problem, cands):
        np.add(noise, p_int, out=p_int)
        np.divide(p_sig, p_int, out=p_sig)
        p_sig[:, :m].min(axis=0, out=sinr[lo:lo + m])
    np.add(1.0, sinr, out=sinr)
    np.log2(sinr, out=sinr)
    sinr *= 0.5
    return sinr

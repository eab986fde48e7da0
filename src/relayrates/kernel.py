"""Batch evaluation of max-min decode-forward rates over many split matrices.

The grid-refinement optimizer evaluates the same channel at hundreds of
thousands of candidate power splits, so the window of
``gaussian._window`` (described in the ``gaussian`` module docstring) is
compiled to a flat array program once per channel (``compile_chain``) and
then executed by a numpy loop over its carrier groups (``batch_min_rate``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import NetworkGeometry, PowerConfig, PropagationModel
from .coding import CombiningMode, Permutation, row_lengths
from .gaussian import _CANCEL, _DECODE, _window

KIND_SIG = 0
KIND_INT = 1


@dataclass(frozen=True)
class ChainProblem:
    """Flat description of one channel ready for batch rate evaluation."""

    n_receivers: int
    n_cols: int
    grp_rcv: np.ndarray     # int32, receiver index per group
    grp_kind: np.ndarray    # int8, KIND_SIG or KIND_INT
    grp_ptr: np.ndarray     # int64, CSR pointers into the entry arrays
    ent_const: np.ndarray   # float64, gain * transmit power per carrier
    ent_col: np.ndarray     # int32, flat split-matrix column per carrier
    noise: np.ndarray       # float64 per receiver
    coherent: bool
    row_lengths: tuple      # split-row length per transmitter node


def compile_chain(
    geometry: NetworkGeometry,
    prop: PropagationModel,
    power: PowerConfig,
    k: int,
    perm: Permutation,
    mode: CombiningMode,
) -> ChainProblem:
    """One group per (receiver, decoded or interfering sub-signal) with at
    least one carrier, receivers by node id, sub-signals and carriers by
    position."""
    t_count = geometry.node_count
    lengths = row_lengths(t_count, k, perm)
    lengths_seq = tuple(lengths[t] for t in range(1, t_count))
    col_offset = np.concatenate([[0], np.cumsum(lengths_seq)])

    order = np.asarray(perm.order)
    pos_r = np.argsort(order)[1:] + 1          # positions of nodes 2..T
    band, _, carried = _window(pos_r, t_count, k)
    entry = (band != _CANCEL)[:, :, None] & carried.T
    # reversed carrier axis: carriers in ascending position within a group
    r_idx, q_idx, j_rev = np.nonzero(entry[:, :, ::-1])
    j = k - 1 - j_rev
    node = order[q_idx - j]                    # carrier at position q - j
    first = np.flatnonzero(np.diff(r_idx * t_count + q_idx, prepend=-1))

    return ChainProblem(
        n_receivers=t_count - 1,
        n_cols=int(col_offset[-1]),
        grp_rcv=r_idx[first].astype(np.int32),
        grp_kind=np.where(band[r_idx[first], q_idx[first]] == _DECODE,
                          KIND_SIG, KIND_INT).astype(np.int8),
        grp_ptr=np.append(first, r_idx.size).astype(np.int64),
        ent_const=(prop.kappa * geometry.distances[node - 1, r_idx + 1] ** (-prop.eta)
                   * power.transmit_powers[node - 1]),
        ent_col=(col_offset[node - 1] + j).astype(np.int32),
        noise=np.array(power.noise_powers, dtype=np.float64),
        coherent=mode is CombiningMode.COHERENT,
        row_lengths=lengths_seq,
    )


def batch_min_rate(problem: ChainProblem, cands: np.ndarray) -> np.ndarray:
    """Max-min rate over all receivers for each candidate flat split vector,
    vectorized over candidates and looping over groups."""
    cands = np.ascontiguousarray(cands, dtype=np.float64)
    if cands.ndim != 2 or cands.shape[1] != problem.n_cols:
        raise ValueError(
            f"candidates must have shape (n, {problem.n_cols}), got {cands.shape}"
        )
    n = cands.shape[0]
    p_sig = np.zeros((problem.n_receivers, n))
    p_int = np.zeros((problem.n_receivers, n))
    ptr = problem.grp_ptr
    for g in range(problem.grp_rcv.size):
        lo, hi = ptr[g], ptr[g + 1]
        cols = problem.ent_col[lo:hi]
        consts = problem.ent_const[lo:hi]
        parts = consts[None, :] * cands[:, cols]
        if problem.coherent:
            term = np.square(np.sqrt(parts).sum(axis=1))
        else:
            term = parts.sum(axis=1)
        if problem.grp_kind[g] == KIND_SIG:
            p_sig[problem.grp_rcv[g]] += term
        else:
            p_int[problem.grp_rcv[g]] += term
    # 0.5 * log2(1 + p_sig / (noise + p_int)), in place: these two arrays
    # are the largest the optimizer allocates
    p_int += problem.noise[:, None]
    p_sig /= p_int
    p_sig += 1.0
    np.log2(p_sig, out=p_sig)
    p_sig *= 0.5
    return p_sig.min(axis=0)

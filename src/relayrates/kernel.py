"""Batch evaluation of max-min decode-forward rates over many split matrices.

The grid-refinement optimizer evaluates one channel at hundreds of thousands
of candidate splits: ``compile_chain`` lays the channel out once for the
engine of ``gaussian``, and each ``batch_min_rate`` call plans it once
(``_plan``) and streams cache-sized blocks of candidates through the
contraction (``_contract``) into buffers it allocates once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import NetworkGeometry, PowerConfig, PropagationModel
from .coding import CombiningMode, Permutation, _carriers, row_lengths
from .gaussian import (_CANCEL, _block_size, _contract, _layout, _plan, _scratch_size,
                       _window)


@dataclass(frozen=True)
class ChainProblem:
    """One channel laid out for the engine (``gain``, ``pos_r``, ``split_col``
    from ``gaussian._layout``), with the window's (receiver, decoded or
    interfering sub-signal) groups as CSR over their carriers: the gain *
    fraction terms one candidate costs."""

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


def compile_chain(
    geometry: NetworkGeometry,
    prop: PropagationModel,
    power: PowerConfig,
    k: int,
    perm: Permutation,
    mode: CombiningMode,
) -> ChainProblem:
    """Receivers by node id; CSR groups by sub-signal position, carriers in
    ascending position within a group."""
    t_count = geometry.node_count
    n_cols = sum(row_lengths(t_count, k, perm).values())
    gain, pos_r, split_col = _layout(geometry, prop, power, k, perm,
                                     np.arange(2, t_count + 1))
    entry = ((_window(pos_r, t_count, k) != _CANCEL)[:, :, None]
             & (_carriers(t_count, k) >= 1))
    # reversed carrier axis: carriers in ascending position within a group
    r_idx, q_idx, j_rev = np.nonzero(entry[:, :, ::-1])
    j = k - 1 - j_rev
    p_idx = q_idx - j                          # carrier at position q - j
    first = np.flatnonzero(np.diff(r_idx * t_count + q_idx, prepend=-1))

    return ChainProblem(
        n_receivers=t_count - 1,
        n_cols=n_cols,
        grp_ptr=np.append(first, r_idx.size).astype(np.int64),
        ent_const=gain.ravel()[r_idx * (t_count - 1) + p_idx],
        ent_col=split_col.ravel()[p_idx * k + j].astype(np.int32),
        noise=np.array(power.noise_powers, dtype=np.float64),
        coherent=mode is CombiningMode.COHERENT,
        gain=gain,
        pos_r=pos_r,
        split_col=split_col,
    )


def batch_min_rate(problem: ChainProblem, cands: np.ndarray) -> np.ndarray:
    """Max-min rate over all receivers for each candidate flat split vector
    (one per row), evaluated a block of candidates at a time.  Every block
    runs the same ufuncs in the same order, so a rate does not depend on the
    block it falls in."""
    cands = np.asarray(cands, dtype=np.float64)
    if cands.ndim != 2 or cands.shape[1] != problem.n_cols:
        raise ValueError(f"candidates must have shape (n, {problem.n_cols}), "
                         f"got {cands.shape}")
    n, n_rcv = cands.shape[0], problem.n_receivers
    t_count = n_rcv + 1
    out = np.empty(n)
    plan = _plan(problem.gain, problem.pos_r, problem.split_col, problem.coherent)
    # a candidate's (sub-signal, receiver) products are a row of (T-1) ** 2
    step = _block_size(t_count, n_rcv)
    width = min(step, n)
    scratch = np.empty(_scratch_size(t_count, problem.split_col.shape[1], n_rcv, width))
    powers = np.empty((3, n_rcv * width))
    noise = problem.noise[:, None]
    for lo in range(0, n, step):
        m = min(step, n - lo)
        p_sig, p_int, rates = (v[:n_rcv * m].reshape(n_rcv, m) for v in powers)
        _contract(plan, cands[lo:lo + m].T, p_sig, p_int, scratch)
        np.add(noise, p_int, out=rates)
        np.divide(p_sig, rates, out=rates)
        np.add(1.0, rates, out=rates)
        np.log2(rates, out=rates)
        rates.min(axis=0, out=out[lo:lo + m])
    out *= 0.5
    return out

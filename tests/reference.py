"""Scalar reference evaluators for the tests.

``reference_record`` gives k-hop decode-forward reception rates: an
independent oracle with one explicit loop per receiver and sub-signal,
written from the window's definition and sharing no evaluation code with
the library.  A receiver at position p decodes sub-signals
p-k..p-1, cancels p..p+k-1 and hears every other sub-signal as noise;
sub-signal q is carried by the transmitters at positions q-k+1..q.  Failed
relays transmit nothing: they leave the decoded sums, keep their designed
interference, and cancelling what they never sent adds mismatch noise.

``reference_lag_powers`` gives the band powers of the identity-ordered
unit-spacing chain by one direct convolution over lags per ordered carrier
pair, the O(T^2) form the library's run rule for the noise band replaces.

``reference_joint`` gives the discrete oracle's joint table, one outcome of
the sub-signals at a time.

``reference_optimize_splits`` and ``reference_rates_over_k`` run the split
search with every grid round expanded into its (n, ndim) points and mapped
by ``free_to_fractions`` as a whole, the form the library's row-by-row grid
map replaces, and build its seeds (``own_only`` and the smaller-k optima)
one coordinate at a time.  The round schedule (21 points per axis at most,
a coarse pass and 3 refinement rounds, each box 5 times narrower, until two
rounds in a row gain less than 1e-6) and the default budget of 400 000 are
written out here too, so they check the map, the seeds and the schedule,
sharing only the kernel and the stick-breaking map with the library.

``reference_crossing`` finds the crossing of two rates by bisection.

``reference_chain_csr`` builds ``compile_chain``'s CSR the way the library
did before its carrier template: a (receiver, sub-signal, carrier) mask, its
``np.nonzero`` and a group search over the flat (receiver, sub-signal)
index.  It shares ``_layout``, ``_window`` and ``_carriers`` with the library,
so it checks only the CSR built from them.
"""

import math

import numpy as np

from relayrates import (
    CombiningMode,
    Permutation,
    ReceptionRecord,
    SplitMatrix,
    batch_min_rate,
    compile_chain,
    rate_report,
    row_lengths,
)
from relayrates.coding import _carriers
from relayrates.gaussian import _CANCEL, _layout, _window
from relayrates.optimizer import OptimumResult, free_to_fractions


def reference_record(geometry, prop, power, splits, k, perm=None,
                     mode=CombiningMode.COHERENT, receiver=2, failed=frozenset()):
    t_count = geometry.node_count
    perm = perm or Permutation.identity(t_count)
    pos_r = perm.position_of(receiver)
    coherent = mode is CombiningMode.COHERENT

    p_sig = 0.0
    p_int = 0.0
    for q in range(1, t_count):
        in_decode = max(1, pos_r - k) <= q <= pos_r - 1
        in_known = pos_r <= q <= pos_r + k - 1
        amp = 0.0
        pwr = 0.0
        mismatch = 0.0
        for p in range(max(1, q - k + 1), q + 1):
            node = perm.node_at(p)
            row = splits.rows[node - 1]
            if q - p > len(row) - 1 or node == receiver:
                continue
            contrib = (
                prop.kappa * geometry.distance(node, receiver) ** (-prop.eta)
                * row[q - p]
                * power.transmit_power(node)
            )
            if node in failed:
                if in_decode:
                    continue  # lost from the decoded sum
                if in_known:
                    mismatch += contrib  # cancelled but never sent
                    continue
                # designed interference floor is kept for failed nodes
            amp += math.sqrt(contrib)
            pwr += contrib
        term = amp * amp if coherent else pwr
        if in_decode:
            p_sig += term
        elif in_known:
            p_int += mismatch
        else:
            p_int += term

    noise = power.noise_power(receiver)
    rate = 0.5 * math.log2(1.0 + p_sig / (noise + p_int))
    return ReceptionRecord(receiver, p_sig, p_int, noise, rate)


def reference_records(geometry, prop, power, splits, k, perm=None,
                      mode=CombiningMode.COHERENT, failed=frozenset()):
    """Records of receivers 2..T in node-id order."""
    return [
        reference_record(geometry, prop, power, splits, k, perm, mode, r, failed)
        for r in range(2, geometry.node_count + 1)
    ]


def reference_lag_powers(by_dist, frac):
    """Signal and interference power at receivers 2..T of the identity-ordered
    chain whose gain * transmit power between positions d apart is
    ``by_dist[d]``, where ``frac[p-1, j]`` is the fraction position p spends
    on sub-signal p+j.

    At lag l = p - q receiver p decodes sub-signal q for 1 <= l <= k, cancels
    it for 1-k <= l <= 0 and hears it as noise otherwise; the carrier at
    position q-j reaches it through ``by_dist[|l + j|]``."""
    t_count, k = frac.shape[0] + 1, frac.shape[1]
    q = np.arange(1, t_count)
    x = np.zeros((t_count - 1, k))       # x[q-1, j]: carrier q-j on q
    for j in range(k):
        has = q - j >= 1
        x[has, j] = frac[q[has] - j - 1, j]
    # lags from receiver 2 on sub-signal T-1 to receiver T on sub-signal 1;
    # past T-1 positions a carrier is absent, so pad with zero gain
    lag = np.arange(3 - t_count, t_count)
    by = np.append(by_dist, np.zeros(k))
    amp = np.sqrt(by[np.abs(lag[:, None] + np.arange(k))])
    noise = (lag > k) | (lag < 1 - k)
    decode = (lag >= 1) & (lag <= k)
    p_sig, p_int = np.zeros((2, t_count - 1))
    for j in range(k):
        for jj in range(k):
            kern = amp[:, j] * amp[:, jj]
            y = np.sqrt(x[:, j] * x[:, jj])
            p_sig += np.convolve(np.where(decode, kern, 0.0), y, "valid")
            p_int += np.convolve(np.where(noise, kern, 0.0), y, "valid")
    return p_sig, p_int


def reference_joint(channel, inputs, k, perm=None):
    """Table of p(u_1..u_{T-1}, y_2..y_T): for each sub-signal outcome u, the
    product of the sub-signal pmfs in node order times p(y | x(u)), where
    the node at position p maps the sub-signals at positions p..p+k-1."""
    t_count = channel.node_count
    perm = perm or Permutation.identity(t_count)
    carried = {
        perm.node_at(p): [perm.node_at(q) for q in range(p, min(p + k, t_count))]
        for p in range(1, t_count)
    }
    u_sizes = tuple(inp.u_pmf.size for inp in inputs)
    n_y = int(np.prod(channel.output_sizes))
    flat_channel = channel.table.reshape(channel.input_sizes + (n_y,))
    joint = np.zeros(u_sizes + channel.output_sizes)
    for u in np.ndindex(*u_sizes):
        prob = 1.0
        for node in range(1, t_count):
            prob *= inputs[node - 1].u_pmf[u[node - 1]]
        if prob == 0.0:
            continue
        x = tuple(
            int(inputs[node - 1].x_map[tuple(u[n - 1] for n in carried[node])])
            for node in range(1, t_count)
        )
        joint[u] = (prob * flat_channel[x]).reshape(channel.output_sizes)
    return joint


def reference_chain_csr(geometry, prop, power, k, perm):
    """``(grp_ptr, ent_const, ent_col)`` of ``compile_chain`` from the 3-D
    entry mask."""
    t_count = geometry.node_count
    gain, pos_r, split_col = _layout(geometry, prop, power, k, perm)
    entry = ((_window(pos_r, t_count, k) != _CANCEL)[:, :, None]
             & (_carriers(t_count, k) >= 1))
    # reversed carrier axis: carriers in ascending position within a group
    r_idx, q_idx, j_rev = np.nonzero(entry[:, :, ::-1])
    j = k - 1 - j_rev
    p_idx = q_idx - j                          # carrier at position q - j
    first = np.flatnonzero(np.diff(r_idx * t_count + q_idx, prepend=-1))
    return (np.append(first, r_idx.size).astype(np.int64),
            gain.ravel()[r_idx * (t_count - 1) + p_idx],
            split_col.ravel()[p_idx * k + j].astype(np.int32))


def reference_seed(free, rows, lengths):
    """The search point at row lengths ``lengths`` of the optimum whose point
    is ``free`` and whose split rows are ``rows``: per row, the coordinates
    until one is 1.0 and zeros after it, then 1.0 for the first new one if
    the row's last fraction is positive, and zeros."""
    point, at = [], 0
    for row, m in zip(rows, lengths):
        spent = False
        for j in range(m - 1):
            if j < len(row) - 1:
                point.append(0.0 if spent else float(free[at + j]))
                spent = spent or point[-1] == 1.0
            else:
                point.append(1.0 if j == len(row) - 1 and row[-1] > 0.0 else 0.0)
        at += len(row) - 1
    return np.array(point)


def reference_box(center, lo, hi):
    """One axis of the next round's box: 5 times narrower than [lo, hi],
    centred on ``center`` and moved, where it would leave [0, 1], back to
    touch the face it crossed (the upper face first, then the lower)."""
    width = (hi - lo) / 5.0
    new_hi = min(max(center - width / 2.0, 0.0) + width, 1.0)
    return max(new_hi - width, 0.0), new_hi


def reference_optimize_splits(geometry, prop, power, k, perm=None,
                              mode=CombiningMode.COHERENT, budget=400_000, warm=()):
    """``optimize_splits`` with each round's grid points built and mapped in
    full: ``own_only`` and the warm optima first, then every round's argmax,
    first in C order; ``achieved_tolerance`` is None if no round ran."""
    t_count = geometry.node_count
    perm = perm or Permutation.identity(t_count)
    lengths = tuple(row_lengths(t_count, k, perm)[t] for t in range(1, t_count))
    ndim = sum(m - 1 for m in lengths)

    def result_for(splits, evaluations, achieved, incomplete, free=np.empty(0)):
        report = rate_report(geometry, prop, power, splits, k, perm, mode)
        return OptimumResult(report.rate, report, splits, evaluations, achieved,
                             incomplete, permutation=perm, free=free)

    if ndim == 0:
        return result_for(SplitMatrix(tuple((1.0,) for _ in lengths)), 1, 0.0, False)

    problem = compile_chain(geometry, prop, power, k, perm, mode)
    lo, hi = np.zeros(ndim), np.ones(ndim)
    evaluations, best_rate, best_free = 0, -math.inf, None
    achieved, incomplete, stalled = None, False, 0

    def search(pts):
        nonlocal evaluations, best_rate, best_free
        rates = batch_min_rate(problem, free_to_fractions(pts, lengths))
        evaluations += pts.shape[0]
        idx = int(np.argmax(rates))
        improvement = float(rates[idx]) - best_rate
        if improvement > 0.0:
            best_rate, best_free = float(rates[idx]), pts[idx].copy()
        return improvement

    own_only = [(1.0,)] * len(lengths)
    search(np.stack([reference_seed([], own_only, lengths)]
                    + [reference_seed(res.free, res.splits.rows, lengths) for res in warm]))
    # a coarse pass over the unit box, then up to 3 refinement rounds
    for rounds_left in (4, 3, 2, 1):
        remaining = budget - evaluations
        if remaining < 2 ** ndim:
            incomplete = True
            break
        # an equal share of what is left, 2**ndim at least, and the most
        # points per axis, 21 at most and 2 at least, whose grid fits it
        share = max(2 ** ndim, remaining // rounds_left)
        res = next((r for r in range(21, 2, -1) if r ** ndim <= share), 2)
        grids = np.meshgrid(*[np.linspace(a, b, res) for a, b in zip(lo, hi)], indexing="ij")
        achieved = max(search(np.stack([g.ravel() for g in grids], axis=1)), 0.0)
        # two rounds in a row that gain less than 1e-6 end the search
        stalled = stalled + 1 if achieved < 1e-6 else 0
        if stalled == 2:
            break
        lo, hi = np.array([reference_box(*axis) for axis in zip(best_free, lo, hi)]).T
    fracs = free_to_fractions(best_free[None, :], lengths)[0]
    return result_for(SplitMatrix.from_flat(fracs, lengths), evaluations, achieved,
                      incomplete, best_free)


def reference_rates_over_k(geometry, prop, power, ks, perm=None,
                           mode=CombiningMode.COHERENT, budget=400_000):
    """``optimize_rates_over_k`` on ``reference_optimize_splits``: every
    smaller k's optimum seeds k but k = 1's, which is ``own_only``."""
    results = {}
    for k in sorted(set(ks)):
        warm = [res for prev_k, res in results.items() if prev_k > 1]
        results[k] = reference_optimize_splits(geometry, prop, power, k, perm, mode,
                                               budget, warm)
    return results



def reference_crossing(gap, lo, hi):
    """The point in [lo, hi] where ``gap`` changes sign, by bisection until
    the bracket stops shrinking; ``gap(lo)`` and ``gap(hi)`` must differ in
    sign.  The MARC and BRC searches solve the same crossings in closed
    form."""
    below = gap(lo) < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if (gap(mid) < 0.0) == below:
            lo = mid
        else:
            hi = mid

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
"""

import math

import numpy as np

from relayrates import CombiningMode, Permutation, ReceptionRecord


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
            row = splits.row(node)
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

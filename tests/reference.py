"""Scalar reference evaluators for the tests.

``reference_record`` gives k-hop decode-forward reception rates: an
independent oracle with one explicit loop per receiver and sub-signal,
written from the window's definition and sharing no evaluation code with
the library.  A receiver at position p decodes sub-signals
p-k..p-1, cancels p..p+k-1 and hears every other sub-signal as noise;
sub-signal q is carried by the transmitters at positions q-k+1..q.  Failed
relays transmit nothing: they leave the decoded sums, keep their designed
interference, and cancelling what they never sent adds mismatch noise.

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

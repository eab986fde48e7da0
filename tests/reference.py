"""Scalar reference evaluator of k-hop decode-forward reception rates.

An independent oracle for the tests: one explicit loop per receiver and
sub-signal, written from the window's definition and sharing no evaluation
code with the library.  A receiver at position p decodes sub-signals
p-k..p-1, cancels p..p+k-1 and hears every other sub-signal as noise;
sub-signal q is carried by the transmitters at positions q-k+1..q.  Failed
relays transmit nothing: they leave the decoded sums, keep their designed
interference, and cancelling what they never sent adds mismatch noise.
"""

import math

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

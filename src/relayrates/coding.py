"""Sub-signal layout and power splits for k-hop decode-forward.

Every transmitter introduces one fresh sub-signal and may additionally
repeat the sub-signals of up to k-1 nodes ahead of it in the relay order.
The ``SplitMatrix`` records how each transmitter divides its fixed average
power over the sub-signals it carries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import _whole

ROW_SUM_TOL = 1e-12


class SplitValidationError(ValueError):
    """Raised for malformed permutations or power-split matrices."""


class CombiningMode(Enum):
    """Whether simultaneous copies of a sub-signal add in amplitude or power.

    COHERENT: received amplitudes add before squaring (static channel).
    FADING: phase/Rayleigh fading, inputs independent, powers add.
    """

    COHERENT = "coherent"
    FADING = "fading"


@dataclass(frozen=True)
class Permutation:
    """Relay ordering: ``order[p-1]`` is the node at position p.

    The source and the destination are fixed at the first and last
    positions; only relay positions may be permuted.
    """

    order: tuple

    def __post_init__(self):
        values = tuple(self.order)
        order = tuple(map(_whole, values))
        if None in order:
            bad = values[order.index(None)]
            raise SplitValidationError(f"node ids must be whole numbers, got {bad!r}")
        object.__setattr__(self, "order", order)
        t = len(order)
        if t < 3:
            raise SplitValidationError("permutation needs at least 3 nodes")
        if order[0] != 1 or order[-1] != t:
            raise SplitValidationError("permutation must fix the endpoints 1 and T")
        if sorted(order) != list(range(1, t + 1)):
            raise SplitValidationError("permutation must be a bijection on 1..T")

    @classmethod
    def identity(cls, node_count: int) -> "Permutation":
        return cls(tuple(range(1, _node_count(node_count) + 1)))

    @property
    def node_count(self) -> int:
        return len(self.order)

    def node_at(self, position: int) -> int:
        """Node id at 1-based position."""
        return self.order[position - 1]

    def position_of(self, node: int) -> int:
        """1-based position of a node id."""
        return self.order.index(node) + 1


def _node_count(node_count) -> int:
    """``node_count`` as an int, read by ``channel._whole`` (6.0 reads as
    6); a fraction, a bool or a string raises ``SplitValidationError``."""
    whole = _whole(node_count)
    if whole is None:
        raise SplitValidationError(f"node count must be a whole number, got {node_count!r}")
    return whole


def _check_hop_depth(node_count: int, k) -> None:
    """Raise ``SplitValidationError`` unless k is an integer hop depth in
    1..T-1; a bool is refused like any other non-integer."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise SplitValidationError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= node_count - 1:
        raise SplitValidationError(f"k must be in 1..{node_count - 1}, got {k}")


def row_lengths(node_count: int, k: int, perm: Permutation) -> dict:
    """Number of sub-signals carried by each transmitter, keyed by node id."""
    node_count = _node_count(node_count)
    if perm.node_count != node_count:
        raise SplitValidationError(
            f"the permutation is for {perm.node_count} nodes, not {node_count}")
    _check_hop_depth(node_count, k)
    return {node: min(k, node_count - p) for p, node in enumerate(perm.order[:-1], start=1)}


def _carriers(node_count: int, k: int) -> np.ndarray:
    """``tx[q-1, j] = q-j``, the position of carrier j of the sub-signal at
    position q = 1..T-1; the carrier exists where ``tx >= 1``."""
    return np.arange(1, node_count)[:, None] - np.arange(k)


def carrier_layout(node_count: int, k: int, perm: Permutation) -> dict:
    """Map each sub-signal (keyed by the node that introduces it) to the set
    of transmitter nodes that carry a copy of it.

    The sub-signal introduced by the node at position q is carried by the
    transmitters at positions q-k+1..q that still have q within reach.
    """
    node_count = _node_count(node_count)
    row_lengths(node_count, k, perm)  # validates k
    order = np.asarray(perm.order)
    tx = _carriers(node_count, k)
    return {node: sorted(order[row[row >= 1] - 1].tolist())
            for node, row in zip(perm.order, tx)}


@dataclass(frozen=True)
class SplitMatrix:
    """Per-transmitter power fractions over the carried sub-signals.

    ``rows[t-1][m]`` is the fraction of node t's power spent on the
    sub-signal at position ``pos(t) + m`` in the relay order.  Each row is
    non-negative and sums to one.
    """

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        for idx, row in enumerate(rows):
            if len(row) == 0:
                raise SplitValidationError(f"row {idx + 1} is empty")
            if not all(math.isfinite(v) for v in row):
                raise SplitValidationError(f"row {idx + 1} has a non-finite fraction")
            if any(v < 0.0 for v in row):
                raise SplitValidationError(f"row {idx + 1} has a negative fraction")
            if not abs(sum(row) - 1.0) <= ROW_SUM_TOL:
                raise SplitValidationError(
                    f"row {idx + 1} must sum to 1, got {sum(row)!r}"
                )

    def validate_for(self, node_count: int, k: int, perm: Permutation) -> None:
        node_count = _node_count(node_count)
        lengths = row_lengths(node_count, k, perm)
        if len(self.rows) != node_count - 1:
            raise SplitValidationError(
                f"need {node_count - 1} rows, got {len(self.rows)}"
            )
        for node in range(1, node_count):
            want = lengths[node]
            got = len(self.rows[node - 1])
            if got != want:
                raise SplitValidationError(
                    f"row for node {node} must have {want} entries, got {got}"
                )

    @classmethod
    def own_only(cls, node_count: int, k: int, perm: Permutation = None) -> "SplitMatrix":
        """All power on the transmitter's own fresh sub-signal."""
        node_count = _node_count(node_count)
        perm = perm or Permutation.identity(node_count)
        lengths = row_lengths(node_count, k, perm)
        return cls(tuple(
            (1.0,) + (0.0,) * (lengths[t] - 1) for t in range(1, node_count)
        ))

    @classmethod
    def uniform(cls, node_count: int, k: int, perm: Permutation = None) -> "SplitMatrix":
        """Equal fractions over every carried sub-signal."""
        node_count = _node_count(node_count)
        perm = perm or Permutation.identity(node_count)
        lengths = row_lengths(node_count, k, perm)
        return cls(tuple(
            (1.0 / lengths[t],) * lengths[t] for t in range(1, node_count)
        ))

    @classmethod
    def two_hop(cls, forward_fractions) -> "SplitMatrix":
        """Two-hop splits from the forward fractions of nodes 1..T-2.

        Node t spends ``forward_fractions[t-1]`` of its power repeating the
        next node's sub-signal and the rest on its own; the last relay has
        a single sub-signal.
        """
        f = list(forward_fractions)
        for v in f:
            if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
                raise SplitValidationError(f"forward fractions must be numbers, got {v!r}")
        f = [float(v) for v in f]
        if any(not 0.0 <= v <= 1.0 for v in f):
            raise SplitValidationError("forward fractions must lie in [0, 1]")
        return cls(tuple((1.0 - v, v) for v in f) + ((1.0,),))

    def as_flat(self) -> np.ndarray:
        return np.array([v for row in self.rows for v in row], dtype=float)

    @classmethod
    def from_flat(cls, flat, lengths) -> "SplitMatrix":
        flat = list(flat)
        rows, at = [], 0
        for m in lengths:
            rows.append(tuple(flat[at:at + m]))
            at += m
        return cls(tuple(rows))

    def embed(self, node_count: int, k_from: int, k_to: int,
              perm: Permutation = None) -> "SplitMatrix":
        """Pad rows with zero forward mass so a k_from-hop split is usable
        at k_to >= k_from on the same channel."""
        node_count = _node_count(node_count)
        perm = perm or Permutation.identity(node_count)
        if k_to < k_from:
            raise SplitValidationError("k_to must be >= k_from")
        self.validate_for(node_count, k_from, perm)
        lengths = row_lengths(node_count, k_to, perm)
        return SplitMatrix(tuple(
            row + (0.0,) * (lengths[t + 1] - len(row))
            for t, row in enumerate(self.rows)
        ))

"""Exact rate evaluation for small discrete memoryless multiple-relay
channels, by brute-force summation over probability tables.

This is the independent oracle for the Gaussian rate formulas: the same
k-hop decode/cancel window semantics, but with conditional mutual
information evaluated from probability tables instead of in closed form.
``khop_dmc_rate`` rates each receiver from entropies: the sub-signals are
independent, so I(U_D; Y_r | U_K) = H(U_D) + H(U_K, Y_r) - H(U_D, U_K, Y_r),
with H(U_D) the sum of the decoded sub-signals' pmf entropies.  Both tables
are marginals of p(u, y_r): the output's marginal p(y_r | x), held once per
channel, read at the channel inputs x(u) and weighted by p(u).  Every
entropy of a call, over every receiver, comes from one ``log2`` and one
segment sum.  ``build_joint`` gives the full joint of every sub-signal and
output, and ``mutual_information`` sums I(A;B|C) on it term by term in
ratio form: the reference the entropy form is tested against.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .channel import _fields_equal, _read_only
from .coding import Permutation, row_lengths

MASS_TOL = 1e-12
DEFAULT_TABLE_CAP = 1 << 20


class PmfValidationError(ValueError):
    """Raised for malformed probability tables or input descriptions."""


class TableSizeError(RuntimeError):
    """Raised when a joint table would exceed the configured entry cap."""


@dataclass(frozen=True)
class JointPmf:
    """Joint distribution of labeled finite random variables."""

    labels: tuple
    table: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        labels = tuple(str(v) for v in self.labels)
        table = _read_only(self.table)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "table", table)
        if len(labels) != table.ndim:
            raise PmfValidationError("one label per table axis required")
        if len(set(labels)) != len(labels):
            raise PmfValidationError("labels must be unique")
        if np.any(table < 0.0):
            raise PmfValidationError("probabilities must be non-negative")
        # negated so that a NaN or infinite entry fails too
        if not abs(float(table.sum()) - 1.0) <= MASS_TOL:
            raise PmfValidationError(f"total mass must be 1, got {table.sum()!r}")

    def axes_of(self, labels) -> tuple:
        try:
            return tuple(self.labels.index(str(v)) for v in labels)
        except ValueError as exc:
            raise PmfValidationError(f"unknown label in {labels}") from exc


def mutual_information(joint: JointPmf, a, b, c=()) -> float:
    """Conditional mutual information I(A;B|C) in bits, summed term by term
    as p(a,b,c) log2 [p(a,b,c) p(c) / (p(a,c) p(b,c))].

    Zero-probability outcomes contribute nothing; A, B, and C must be
    disjoint subsets of the joint's labels.
    """
    a, b, c = [tuple(str(v) for v in grp) for grp in (a, b, c)]
    if not a or not b:
        raise PmfValidationError("A and B must be non-empty")
    merged = a + b + c
    if len(set(merged)) != len(merged):
        raise PmfValidationError("A, B, C must be disjoint")
    axes = joint.axes_of(merged)
    table = joint.table
    drop = tuple(ax for ax in range(table.ndim) if ax not in axes)
    if drop:
        table = table.sum(axis=drop)
    # summing keeps the remaining axes in axis order; reorder to (A..., B..., C...)
    kept = sorted(axes)
    p_abc = np.transpose(table, [kept.index(ax) for ax in axes])
    ax_a = tuple(range(len(a)))
    ax_b = tuple(range(len(a), len(a) + len(b)))
    p_ac = p_abc.sum(axis=ax_b, keepdims=True)
    p_bc = p_abc.sum(axis=ax_a, keepdims=True)
    p_c = p_ac.sum(axis=ax_a, keepdims=True)
    # the ratio is formed on the mask only: off it, it may be zero over zero
    mask = p_abc > 0.0
    ratio = np.divide(p_abc * p_c, p_ac * p_bc, out=np.ones_like(p_abc), where=mask)
    # I(A;B|C) >= 0, but the summed terms can round to just below 0
    return max(float(np.sum(p_abc[mask] * np.log2(ratio[mask]))), 0.0)


def _alphabet_sizes(sizes, what: str) -> tuple:
    """``sizes`` as ints, each a whole number of at least 1: a fractional
    size would be truncated and a zero one leaves nothing to reshape."""
    out = []
    for v in sizes:
        whole = isinstance(v, numbers.Integral) or isinstance(v, float) and v.is_integer()
        if isinstance(v, bool) or not whole or v < 1:
            raise PmfValidationError(f"{what} alphabet size must be a positive integer, got {v!r}")
        out.append(int(v))
    return tuple(out)


@dataclass(frozen=True)
class DmcChannel:
    """Conditional table p(y_2..y_T | x_1..x_{T-1}) over finite alphabets."""

    input_sizes: tuple
    output_sizes: tuple
    table: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        ins = _alphabet_sizes(self.input_sizes, "input")
        outs = _alphabet_sizes(self.output_sizes, "output")
        table = _read_only(self.table)
        object.__setattr__(self, "input_sizes", ins)
        object.__setattr__(self, "output_sizes", outs)
        object.__setattr__(self, "table", table)
        if len(ins) < 2 or len(outs) != len(ins):
            raise PmfValidationError(
                "need T-1 >= 2 inputs and equally many outputs (nodes 2..T)"
            )
        if table.shape != ins + outs:
            raise PmfValidationError(
                f"table shape must be {ins + outs}, got {table.shape}"
            )
        if np.any(table < 0.0):
            raise PmfValidationError("conditional probabilities must be >= 0")
        slices = table.reshape(int(np.prod(ins)), -1).sum(axis=1)
        if not np.all(np.abs(slices - 1.0) <= MASS_TOL):
            raise PmfValidationError("each conditional slice must sum to 1")

    @property
    def node_count(self) -> int:
        return len(self.input_sizes) + 1

    @cached_property
    def _output_marginals(self) -> np.ndarray:
        """Every output's marginal p(y_r | x_1..x_{T-1}) side by side, nodes
        2..T in order: one row per input tuple x in C order and one column
        block of |Y_r| columns per output, built on first use.  A block is
        the table summed over every other output, as one product with a
        0/1 matrix that maps each output tuple to its symbol of y_r."""
        n_y = int(np.prod(self.output_sizes))
        symbols = np.indices(self.output_sizes).reshape(len(self.output_sizes), n_y)
        onehot = np.concatenate([(np.arange(size) == ys[:, None]).astype(float)
                                 for size, ys in zip(self.output_sizes, symbols)], axis=1)
        marginals = self.table.reshape(-1, n_y) @ onehot
        marginals.setflags(write=False)
        return marginals


@dataclass(frozen=True)
class NodeInput:
    """Fresh sub-signal pmf and the deterministic map onto the channel input.

    ``x_map`` is indexed by the symbols of the carried sub-signals in relay
    order (own first, then each node further ahead) and yields the channel
    input symbol.
    """

    u_pmf: np.ndarray
    x_map: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        pmf = _read_only(self.u_pmf)
        raw = np.asarray(self.x_map)
        if pmf.ndim != 1 or pmf.size < 1:
            raise PmfValidationError("u_pmf must be a non-empty vector")
        if not (pmf.min() >= 0.0 and abs(float(pmf.sum()) - 1.0) <= MASS_TOL):
            raise PmfValidationError("u_pmf must be a probability vector")
        # a negative symbol would index from the end and a fractional one
        # would be truncated, so both are refused rather than converted
        integral = raw.dtype.kind in "iu" or (
            raw.dtype.kind == "f" and bool((np.isfinite(raw) & (raw == np.trunc(raw))).all())
        )
        if not (integral and raw.min(initial=0) >= 0):
            raise PmfValidationError("x_map entries must be non-negative integers")
        xmap = raw.astype(int)
        object.__setattr__(self, "u_pmf", pmf)
        object.__setattr__(self, "x_map", xmap)
        xmap.setflags(write=False)


@dataclass(frozen=True)
class DmcRateReport:
    """Per-receiver mutual-information rates and the max-min bottleneck."""

    rates: dict
    bottleneck: int
    rate: float


def carried_signals(channel: DmcChannel, inputs, k: int, perm: Permutation = None) -> dict:
    """The sub-signals each node carries under k-hop coding, as node ids
    keyed by node id, after checking every node's ``x_map`` against them:
    one axis per carried sub-signal, symbols inside the input alphabet."""
    t_count = channel.node_count
    if len(inputs) != t_count - 1:
        raise PmfValidationError(f"need {t_count - 1} node inputs")
    perm = perm or Permutation.identity(t_count)
    lengths = row_lengths(t_count, k, perm)

    order = perm.order
    carried = {}
    for p, node in enumerate(order[:-1]):
        ahead = order[p:p + lengths[node]]
        carried[node] = ahead
        xmap = inputs[node - 1].x_map
        want = tuple(inputs[n - 1].u_pmf.size for n in ahead)
        if xmap.shape != want:
            raise PmfValidationError(
                f"x_map for node {node} must have shape {want}, got {xmap.shape}"
            )
        if int(xmap.max(initial=0)) >= channel.input_sizes[node - 1]:
            raise PmfValidationError(f"x_map for node {node} leaves the alphabet")
    return carried


def _outcomes(channel: DmcChannel, inputs, k: int, perm: Permutation):
    """p(u) over every sub-signal outcome u, an array with one axis per
    sub-signal in node order, and the channel inputs x(u), each node's map
    read at the sub-signals it carries, as the C-order index of the tuple x
    in the channel's input alphabets: an integer array of p(u)'s shape."""
    carried = carried_signals(channel, inputs, k, perm)
    grids = np.indices(tuple(inp.u_pmf.size for inp in inputs), sparse=True)
    # p(u) as an outer product, multiplied in node order
    prob = 1.0
    for inp, grid in zip(inputs, grids):
        prob = prob * inp.u_pmf[grid]
    x = 0
    for node, size in enumerate(channel.input_sizes, start=1):
        x = x * size + inputs[node - 1].x_map[tuple(grids[n - 1] for n in carried[node])]
    return prob, x


def build_joint(
    channel: DmcChannel,
    inputs,
    k: int,
    perm: Permutation = None,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> JointPmf:
    """Joint pmf of all sub-signals and channel outputs under the k-hop
    factorization: independent sub-signals, each channel input a
    deterministic function of the sub-signals its node carries."""
    t_count = channel.node_count
    u_sizes = tuple(inp.u_pmf.size for inp in inputs)
    n_y = int(np.prod(channel.output_sizes))
    prob, x = _outcomes(channel, inputs, k, perm)
    if prob.size * n_y > table_cap:
        raise TableSizeError(
            f"joint table would need {prob.size * n_y} entries (cap {table_cap})"
        )

    # one gather of p(y | x) per outcome u
    joint = channel.table.reshape(-1, n_y)[x]
    joint *= prob[..., None]
    joint = joint.reshape(u_sizes + channel.output_sizes)
    joint.setflags(write=False)

    labels = tuple(f"U{n}" for n in range(1, t_count)) + tuple(
        f"Y{n}" for n in range(2, t_count + 1)
    )
    return JointPmf(labels, joint)


def khop_dmc_rate(
    channel: DmcChannel,
    inputs,
    k: int,
    perm: Permutation = None,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> DmcRateReport:
    """Max-min k-hop decode-forward rate of a discrete channel, by exact
    evaluation of every receiver's conditional mutual information.

    The receiver at position p decodes the sub-signals U_D at positions
    p-k..p-1 and knows U_K at p..p+k-1, so its rate is H(U_D) + H(U_K, Y_r)
    - H(U_D, U_K, Y_r), clamped at 0.  Its tables p(u_D, u_K, y_r) and
    p(u_K, y_r) are sums of p(u, y_r): its output's marginal p(y_r | x),
    which the channel holds for every k, read at x(u) and times p(u).  The
    pmf entropies and the tables of every receiver are concatenated and
    reduced at once.  ``table_cap`` bounds the p(u, y_r) tables together.
    """
    t_count = channel.node_count
    perm = perm or Permutation.identity(t_count)
    prob, x = _outcomes(channel, inputs, k, perm)
    marginals = channel._output_marginals
    if prob.size * marginals.shape[1] > table_cap:
        raise TableSizeError(
            f"receiver tables would need {prob.size * marginals.shape[1]} entries "
            f"(cap {table_cap})"
        )
    # every receiver's p(u, y_r) side by side, in the marginals' column blocks
    tables = marginals[x]
    tables *= prob[..., None]
    ends = np.cumsum(channel.output_sizes).tolist()

    # the pmfs, then per receiver its two tables, whose axes are the
    # sub-signals of its window in node order, then Y_r
    order = perm.order
    position = {node: p for p, node in enumerate(order, start=1)}
    n_u = t_count - 1
    segments = [inp.u_pmf for inp in inputs]
    decoded = {}
    for receiver, end, size in zip(range(2, t_count + 1), ends, channel.output_sizes):
        p = position[receiver]
        lo, hi = max(0, p - k - 1), min(p + k - 1, n_u)   # the window's slice of order
        window = sorted(node - 1 for node in order[lo:hi])
        decoded[receiver] = [node - 1 for node in order[lo:p - 1]]
        drop = tuple(ax for ax in range(n_u) if ax not in window)
        table = tables[..., end - size:end]
        if drop:
            table = table.sum(axis=drop)
        segments += [table, table.sum(axis=tuple(window.index(ax) for ax in decoded[receiver]))]
    starts = list(accumulate((seg.size for seg in segments[:-1]), initial=0))
    # dropped once copied on: held to the end at k = T-1 and 2^20 entries,
    # they raised the peak from 26 to 34 MB (the ratio form's was 17 MB)
    del tables
    flat = np.concatenate(segments, axis=None)
    del segments
    # sum of p log2 p over each segment (0 log2 0 = 0): minus its entropy
    terms = np.where(flat > 0.0, flat, 1.0)
    np.log2(terms, out=terms)
    terms *= flat
    plogp = np.add.reduceat(terms, starts).tolist()

    rates = {}
    for i, (receiver, decode) in enumerate(decoded.items()):
        h_decode = -sum(plogp[ax] for ax in decode)
        # I(U_D; Y_r | U_K) >= 0, but the entropies' difference can round to just below 0
        rates[receiver] = max(h_decode + plogp[n_u + 2 * i] - plogp[n_u + 2 * i + 1], 0.0)

    bottleneck = min(rates, key=lambda node: (rates[node], node))
    return DmcRateReport(rates, bottleneck, rates[bottleneck])


def onehop_dmc_rate(
    channel: DmcChannel,
    inputs,
    perm: Permutation = None,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> DmcRateReport:
    """Point-to-point coding: each receiver decodes only the previous node
    and cancels only its own transmission."""
    return khop_dmc_rate(channel, inputs, 1, perm, table_cap)

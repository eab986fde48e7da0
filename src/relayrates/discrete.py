"""Exact rate evaluation for small discrete memoryless multiple-relay
channels, by brute-force summation over joint probability tables.

This is the independent oracle for the Gaussian rate formulas: the same
k-hop decode/cancel window semantics, but with conditional mutual
information evaluated term by term instead of in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _read_only
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
    """Conditional mutual information I(A;B|C) in bits.

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
    drop = tuple(ax for ax in range(joint.table.ndim) if ax not in axes)
    table = joint.table.sum(axis=drop) if drop else joint.table
    # summing keeps the remaining axes in label order; reorder to (A..., B..., C...)
    kept = sorted(axes)
    p_abc = np.transpose(table, [kept.index(ax) for ax in axes])
    na, nb = len(a), len(b)
    ax_a = tuple(range(na))
    ax_b = tuple(range(na, na + nb))
    p_ac = p_abc.sum(axis=ax_b, keepdims=True)
    p_bc = p_abc.sum(axis=ax_a, keepdims=True)
    p_c = p_ac.sum(axis=ax_a, keepdims=True)
    mask = p_abc > 0.0
    # outcomes off the mask may divide zero by zero; they are never read
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = p_abc * p_c / (p_ac * p_bc)
    # I(A;B|C) >= 0, but the summed terms can round to just below 0
    return max(float(np.sum(p_abc[mask] * np.log2(ratio[mask]))), 0.0)


@dataclass(frozen=True)
class DmcChannel:
    """Conditional table p(y_2..y_T | x_1..x_{T-1}) over finite alphabets."""

    input_sizes: tuple
    output_sizes: tuple
    table: np.ndarray

    def __post_init__(self):
        ins = tuple(int(v) for v in self.input_sizes)
        outs = tuple(int(v) for v in self.output_sizes)
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


@dataclass(frozen=True)
class NodeInput:
    """Fresh sub-signal pmf and the deterministic map onto the channel input.

    ``x_map`` is indexed by the symbols of the carried sub-signals in relay
    order (own first, then each node further ahead) and yields the channel
    input symbol.
    """

    u_pmf: np.ndarray
    x_map: np.ndarray

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

    u_sizes = tuple(inp.u_pmf.size for inp in inputs)
    carried = {}
    for p in range(1, t_count):
        node = perm.node_at(p)
        ahead = tuple(perm.node_at(p + j) for j in range(lengths[node]))
        carried[node] = ahead
        want = tuple(u_sizes[n - 1] for n in ahead)
        if inputs[node - 1].x_map.shape != want:
            raise PmfValidationError(
                f"x_map for node {node} must have shape {want}, "
                f"got {inputs[node - 1].x_map.shape}"
            )
        xmax = int(inputs[node - 1].x_map.max(initial=0))
        if xmax >= channel.input_sizes[node - 1]:
            raise PmfValidationError(f"x_map for node {node} leaves the alphabet")
    return carried


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
    carried = carried_signals(channel, inputs, k, perm)
    u_sizes = tuple(inp.u_pmf.size for inp in inputs)
    n_u = int(np.prod(u_sizes))
    n_y = int(np.prod(channel.output_sizes))
    if n_u * n_y > table_cap:
        raise TableSizeError(
            f"joint table would need {n_u * n_y} entries (cap {table_cap})"
        )

    # p(u) as an outer product, multiplied in node order; each node's
    # input as its map read at the sub-signals it carries; then one gather
    # of p(y | x) per outcome u
    grids = np.indices(u_sizes, sparse=True)
    prob = 1.0
    for inp, grid in zip(inputs, grids):
        prob = prob * inp.u_pmf[grid]
    x = tuple(
        inputs[node - 1].x_map[tuple(grids[n - 1] for n in carried[node])]
        for node in range(1, t_count)
    )
    flat_channel = channel.table.reshape(channel.input_sizes + (n_y,))
    joint = flat_channel[x]
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
    evaluation of every receiver's conditional mutual information."""
    t_count = channel.node_count
    perm = perm or Permutation.identity(t_count)
    joint = build_joint(channel, inputs, k, perm, table_cap)

    rates = {}
    for receiver in range(2, t_count + 1):
        pos = perm.position_of(receiver)
        decode = [
            f"U{perm.node_at(q)}" for q in range(max(1, pos - k), pos)
        ]
        known = [
            f"U{perm.node_at(q)}"
            for q in range(pos, min(pos + k - 1, t_count - 1) + 1)
        ]
        rates[receiver] = mutual_information(joint, decode, [f"Y{receiver}"], known)

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

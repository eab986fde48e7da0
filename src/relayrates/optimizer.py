"""Deterministic nested grid search for the max-min split problem.

The objective min_t R_t has kinks where the bottleneck receiver switches,
so ``optimize_splits`` searches the split simplices without derivatives.
Simplex rows with m entries are parameterized by m-1 free coordinates in
[0, 1] via the stick-breaking map, which keeps every grid point feasible.
The search is one function: a coarse grid of up to ``_RESOLUTION`` points
per axis over the unit box, then up to ``_ROUNDS`` finer grids, each over a
box ``SHRINK`` times narrower per axis around the incumbent, until two
rounds in a row gain less than ``_TOLERANCE``.  Its one setting is the
evaluation budget, which trades time for quality.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import NetworkGeometry, PowerConfig, PropagationModel, _whole
from .coding import CombiningMode, Permutation, SplitMatrix, row_lengths
from .gaussian import RateReport, _check_sizes, rate_report
from .kernel import batch_min_rate, compile_chain

log = logging.getLogger("relayrates")

DEFAULT_BUDGET = 400_000  # grid points a search may rate
SHRINK = 5.0  # each refinement round narrows the box by this factor per axis
_RESOLUTION = 21  # grid points per axis, fewer where a round's budget is short
_ROUNDS = 3  # refinement rounds after the coarse pass
_TOLERANCE = 1e-6  # two rounds in a row that gain less end the search

# a grid round reaches the kernel in slabs of at most this many split
# fractions (8 bytes each), never as one (points, fractions) array
_SLAB_ELEMENTS = 1 << 20


def _check_budget(budget) -> int:
    """``budget`` as an int: a whole number of at least 1 (1e3 reads as
    1000; a bool, a string and 2.5 are refused)."""
    whole = _whole(budget)
    if whole is None:
        raise ValueError(f"budget must be an integer, got {budget!r}")
    if whole < 1:
        raise ValueError(f"budget must be a positive integer, got {whole}")
    return whole


@dataclass(frozen=True)
class OptimumResult:
    """Best operating point found, re-evaluated through the reference path.
    ``achieved_tolerance`` is the last grid round's gain, 0.0 where no split
    is free and None where the budget funded no round.  ``free``, left out
    of equality, is the unit-box point ``splits`` maps from (empty if no
    split is free, as at k = 1): a larger-k search seeds from it exactly."""

    rate: float
    report: RateReport
    splits: SplitMatrix
    evaluations: int
    achieved_tolerance: Optional[float]
    incomplete: bool
    permutation: Optional[Permutation] = None
    free: np.ndarray = field(default_factory=lambda: np.empty(0), compare=False)


def free_to_fractions(free: np.ndarray, lengths) -> np.ndarray:
    """Stick-breaking map from free coordinates to concatenated simplex rows.

    ``free`` has one column per free coordinate (sum of m-1 over rows);
    the result has one column per fraction (sum of m over rows).
    """
    n = free.shape[0]
    # column-major: every write below and the kernel's gather read whole columns
    out = np.empty((n, sum(lengths)), order="F")
    at_f, at_c = 0, 0
    for m in lengths:
        rem = np.ones(n)
        for j in range(m - 1):
            v = free[:, at_f + j]
            out[:, at_c + j] = rem * v
            rem = rem * (1.0 - v)
        out[:, at_c + m - 1] = rem
        at_f += m - 1
        at_c += m
    return out


def _seed_point(free, rows, lengths) -> np.ndarray:
    """The point at row lengths ``lengths`` that maps to ``rows``, the map of
    ``free``, padded with zeros, bit for bit.  Per row: ``free``'s
    coordinates up to the first 1.0 (the row's mass is then spent); where the
    row grows, 1.0 if mass is left and 0.0 if not; then zeros."""
    point = np.zeros(sum(m - 1 for m in lengths))
    at_from = at = 0
    for row, m in zip(rows, lengths):
        coords = free[at_from:at_from + len(row) - 1]
        spent = np.flatnonzero(coords == 1.0)
        if spent.size:
            coords = coords[:spent[0] + 1]
        point[at:at + coords.size] = coords
        if m > len(row) and row[-1] > 0.0:
            point[at + len(row) - 1] = 1.0
        at_from += len(row) - 1
        at += m - 1
    return point


def _grid_candidates(axes):
    """Every point of the ``ij`` grid over ``axes``, one per row, stored
    column-major like ``free_to_fractions``' output."""
    shape = tuple(axis.size for axis in axes)
    cands = np.empty((math.prod(shape), len(axes)), order="F")
    for d, axis in enumerate(axes):
        # column d is contiguous: write it as the C-order grid in one broadcast
        along = [1] * len(axes)
        along[d] = -1
        cands[:, d].reshape(shape)[...] = axis.reshape(along)
    return cands


def _row_maps(axes, lengths):
    """Each simplex row's sub-grid map: ``free_to_fractions`` of the ``ij``
    grid over that row's own axes, a (points, m) table in C order (one row
    of 1.0 where m = 1)."""
    at = 0
    for m in lengths:
        yield free_to_fractions(_grid_candidates(axes[at:at + m - 1]), (m,))
        at += m - 1


def _product_fractions(tables):
    """The C-order product of per-row fraction tables, one point per row,
    stored column-major like ``free_to_fractions``' output: each column of a
    table is broadcast over the points of the tables before and after it."""
    sizes = [len(table) for table in tables]
    out = np.empty((math.prod(sizes), sum(table.shape[1] for table in tables)), order="F")
    at = 0
    for r, table in enumerate(tables):
        view = (math.prod(sizes[:r]), sizes[r], math.prod(sizes[r + 1:]))
        for j in range(table.shape[1]):
            out[:, at + j].reshape(view)[...] = table[:, j, None]
        at += table.shape[1]
    return out


def _distinct_points(row_axes):
    """Which points of the ``ij`` grid over one simplex row's axes, in C
    order, are the first with their fractions: None if every point is, else
    a (points,) mask.  After a coordinate of 1.0 the row's mass is spent and
    its later fractions are 0.0 whatever their coordinates, so a point
    repeats an earlier one exactly when a coordinate before its last is 1.0
    and a later one is not at its axis's first value; rows of at most 2
    fractions never repeat."""
    if not any(np.any(axis == 1.0) for axis in row_axes[:-1]):
        return None
    shape = tuple(len(axis) for axis in row_axes)
    spent = repeat = np.zeros((1,) * len(shape), dtype=bool)
    for d, axis in enumerate(row_axes):
        along = [1] * len(shape)
        along[d] = -1
        repeat = repeat | spent & (np.arange(len(axis)) > 0).reshape(along)
        spent = spent | (axis == 1.0).reshape(along)
    return ~np.broadcast_to(repeat, shape).ravel()


def _rate_round(problem, axes, lengths):
    """The (n,) rates of a grid round's points in C order, each distinct
    split rated once.

    Each simplex row keeps its sub-grid's distinct fraction rows at their
    first C-order occurrence (``_distinct_points``); the product of the kept
    rows is rated in consecutive slabs of its C order (``_grid_slabs``), at
    most ``_SLAB_ELEMENTS`` split fractions each, and the rates are expanded
    back to the round's points along each row's axis.  A repeat comes after
    its first occurrence in the run of points that share its coordinates up
    to the 1.0, so the running count of kept points maps it there.  The
    kernel rates a candidate alike in any batch, so neither the slabs nor
    the repeats change a rate.
    """
    tables, maps, at = [], [], 0
    for m, table in zip(lengths, _row_maps(axes, lengths)):
        kept = _distinct_points(axes[at:at + m - 1])
        at += m - 1
        if kept is None:
            maps.append(None)
        else:
            table = table[kept]
            maps.append(np.cumsum(kept) - 1)
        tables.append(table)
    rates = np.concatenate([batch_min_rate(problem, _product_fractions(slab))
                            for slab in _grid_slabs(tables, problem.n_cols)])
    rates = rates.reshape([len(table) for table in tables])
    for r, index in enumerate(maps):
        if index is not None:
            rates = np.take(rates, index, axis=r)
    return rates.ravel()


def _grid_slabs(tables, n_cols):
    """The C-order product of ``tables`` (grid axes, or per-row fraction
    tables) as consecutive runs of it, each as large as ``_SLAB_ELEMENTS``
    allows at ``n_cols`` fractions a point (one point at least): lists of
    tables with the leading ones cut to one entry, the next to a run of
    consecutive entries and the rest whole."""
    cap = max(1, _SLAB_ELEMENTS // n_cols)
    cut, tail = len(tables), 1      # tables[cut:] fit whole, tail points
    while cut > 0 and tail * len(tables[cut - 1]) <= cap:
        cut -= 1
        tail *= len(tables[cut])
    if cut == 0:
        yield tables
        return
    run, whole = cap // tail, tables[cut:]
    cut -= 1
    for lead in itertools.product(*(range(len(table)) for table in tables[:cut])):
        fixed = [table[i:i + 1] for table, i in zip(tables, lead)]
        for lo in range(0, len(tables[cut]), run):
            yield [*fixed, tables[cut][lo:lo + run], *whole]


def optimize_splits(
    geometry: NetworkGeometry,
    prop: PropagationModel,
    power: PowerConfig,
    k: int,
    perm: Permutation = None,
    mode: CombiningMode = CombiningMode.COHERENT,
    budget: int = DEFAULT_BUDGET,
    warm=(),
) -> OptimumResult:
    """Max-min rate over all feasible split matrices for a fixed channel.

    One batch before the grid rates ``own_only``, whose point is
    (1, 0, ..., 0) per row, and each ``warm`` optimum of a smaller k on the
    same channel and relay order, embedded exactly with zero forward mass,
    which keeps optimized rates monotone in k by feasible-set nesting.  So
    the result is never an unrated point, nor below ``own_only``.  Its best
    point is the incumbent.

    Then come up to 1 + ``_ROUNDS`` grid rounds, the first over the unit
    box of free coordinates.  Each takes an equal share of the budget left
    (2^ndim at least), at as many points per axis as fit it, at most
    ``_RESOLUTION``; its first best point in C order becomes the incumbent
    if better, and its gain is ``achieved_tolerance``.  Two rounds in a row
    that gain less than ``_TOLERANCE`` end the search (one flat round can
    just mean the shrunk grid re-hit the incumbent); otherwise the box
    shrinks ``SHRINK`` times per axis around the incumbent, inside the unit
    box.

    Each round goes through ``_rate_round``: where a row coordinate of 1.0
    spends the row's mass, later coordinates repeat a split already in the
    round, and the kernel rates each distinct split once, in slabs of at
    most ``_SLAB_ELEMENTS`` split fractions, without an array of free
    coordinates.  ``evaluations`` still counts every grid point searched,
    repeats included, and since the kernel rates a candidate alike in any
    batch, neither the slabs nor the repeats change a rate or a result.
    A search the budget truncates is flagged ``incomplete`` and logs one
    WARNING on the ``relayrates`` logger.
    """
    budget = _check_budget(budget)
    t_count = geometry.node_count
    perm = perm or Permutation.identity(t_count)
    _check_sizes(geometry, power, perm)
    lengths = tuple(row_lengths(t_count, k, perm)[t] for t in range(1, t_count))
    ndim = sum(m - 1 for m in lengths)

    def result_for(splits, evaluations, achieved, incomplete, free):
        report = rate_report(geometry, prop, power, splits, k, perm, mode)
        free.setflags(write=False)
        return OptimumResult(report.rate, report, splits, evaluations, achieved,
                             incomplete, perm, free)

    own_only = ((1.0,),) * len(lengths)
    if ndim == 0:
        return result_for(SplitMatrix(own_only), 1, 0.0, False, np.empty(0))

    for res in warm:
        if res.permutation != perm or any(len(r) > m for r, m in zip(res.splits.rows, lengths)):
            raise ValueError(f"warm optima must be of a k up to {k} on the same relay order")
    problem = compile_chain(geometry, prop, power, k, perm, mode)

    seeds = np.stack([_seed_point(np.empty(0), own_only, lengths)]
                     + [_seed_point(res.free, res.splits.rows, lengths) for res in warm])
    rates = batch_min_rate(problem, free_to_fractions(seeds, lengths))
    idx = int(np.argmax(rates))
    best_rate, best_free, evaluations = float(rates[idx]), seeds[idx].copy(), len(seeds)

    lo, hi = np.zeros(ndim), np.ones(ndim)
    achieved, incomplete, stalled = None, False, 0
    for rnd in range(_ROUNDS + 1):
        remaining = budget - evaluations
        if remaining < 2 ** ndim:
            incomplete = True
            break
        per_round = max(2 ** ndim, remaining // (_ROUNDS + 1 - rnd))
        per_axis = _RESOLUTION
        while per_axis > 2 and per_axis ** ndim > per_round:
            per_axis -= 1
        axes = [np.linspace(a, b, per_axis) for a, b in zip(lo, hi)]
        rates = _rate_round(problem, axes, lengths)
        evaluations += rates.size
        idx = int(np.argmax(rates))
        rate = float(rates[idx])
        # freed before the next round is rated: held over, the rates of
        # one round raised chain_sweep's peak RSS from 50 to 57 MB
        del rates
        improvement = rate - best_rate
        if improvement > 0.0:
            best_rate = rate
            best_free = np.array([axis[i] for axis, i in
                                  zip(axes, np.unravel_index(idx, (per_axis,) * ndim))])
        achieved = max(improvement, 0.0)
        stalled = stalled + 1 if achieved < _TOLERANCE else 0
        if stalled == 2:
            break
        width = (hi - lo) / SHRINK
        lo = np.maximum(best_free - width / 2.0, 0.0)
        hi = np.minimum(lo + width, 1.0)
        lo = np.maximum(hi - width, 0.0)
    if incomplete:
        log.warning("split search at T=%d, k=%d, %s mode truncated: %d free coordinates, "
                    "budget %d, %d evaluations", t_count, k, mode.value, ndim,
                    budget, evaluations)
    fracs = free_to_fractions(best_free[None, :], lengths)[0]
    splits = SplitMatrix.from_flat(fracs, lengths)
    return result_for(splits, evaluations, achieved, incomplete, best_free)


def optimize_rates_over_k(
    geometry: NetworkGeometry,
    prop: PropagationModel,
    power: PowerConfig,
    ks,
    perm: Permutation = None,
    mode: CombiningMode = CombiningMode.COHERENT,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Optimized rate per k, warm-starting each k from every smaller one but
    k = 1, whose embedding is the ``own_only`` point every search rates."""
    results = {}
    for k in sorted(set(ks)):
        warm = [res for prev_k, res in results.items() if prev_k > 1]
        results[k] = optimize_splits(geometry, prop, power, k, perm, mode, budget, warm)
    return results

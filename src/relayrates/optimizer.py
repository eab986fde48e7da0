"""Deterministic nested grid-refinement for the max-min rate problems.

The objective min_t R_t has kinks where the bottleneck receiver switches,
so derivative-free search over the split simplices is used
throughout.  Simplex rows with m entries are parameterized by m-1 free
coordinates in [0, 1] via the stick-breaking map, which keeps every grid
point feasible.
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import NetworkGeometry, PowerConfig, PropagationModel
from .coding import CombiningMode, Permutation, SplitMatrix, row_lengths
from .gaussian import RateReport, _check_sizes, rate_report
from .kernel import batch_min_rate, compile_chain

log = logging.getLogger("relayrates")

SHRINK = 5.0  # each refinement round narrows the box by this factor per axis

# a grid round reaches the kernel in slabs of at most this many split
# fractions (8 bytes each), never as one (points, fractions) array
_SLAB_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid resolution, refinement schedule, and evaluation budget."""

    resolution: int = 21
    rounds: int = 3
    tolerance: float = 1e-6
    budget: int = 400_000

    def __post_init__(self):
        for name in ("resolution", "rounds", "budget"):
            value = getattr(self, name)
            whole = (isinstance(value, numbers.Integral)
                     or isinstance(value, float) and value.is_integer())
            if isinstance(value, bool) or not whole:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.budget < 1:
            raise ValueError(f"budget must be a positive integer, got {self.budget}")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")


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


def _grid_axes(box_lo, box_hi, per_round_budget, resolution):
    ndim = box_lo.size
    res = resolution
    while res > 2 and res ** ndim > per_round_budget:
        res -= 1
    return [np.linspace(box_lo[d], box_hi[d], res) for d in range(ndim)]


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


def _grid_fractions(axes, lengths):
    """``free_to_fractions(_grid_candidates(axes), lengths)``, built one
    simplex row at a time from that row's own axes.

    A row's fractions depend only on its own free coordinates, whose axes are
    contiguous in the C-order grid, so the grid's fractions are the product
    of the rows' sub-grid maps.
    """
    return _product_fractions(list(_row_maps(axes, lengths)))


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


def _grid_point(axes, idx):
    """Row ``idx`` of ``_grid_candidates(axes)``, without building the grid."""
    point = np.empty(len(axes))
    for d in reversed(range(len(axes))):
        idx, i = divmod(idx, axes[d].size)
        point[d] = axes[d][i]
    return point


def _shrink_box(center, lo, hi):
    width = (hi - lo) / SHRINK
    new_lo = np.maximum(center - width / 2.0, 0.0)
    new_hi = np.minimum(new_lo + width, 1.0)
    new_lo = np.maximum(new_hi - width, 0.0)
    return new_lo, new_hi


def _refine(evaluate, ndim, config, warm):
    """Shared refinement loop over the unit box [0, 1]^ndim.

    Each round is the ``ij`` grid over ndim axes; ``evaluate`` maps the
    round's list of axes to the (n,) rates of its points in C order, the
    order of ``_grid_candidates(axes)``.  ``warm`` is a pair (points, rates)
    of at least one candidate the caller has rated, an (n, ndim) array and
    its (n,) rates: its best point is the incumbent, and the centre of the
    first shrunk box, before the first round.  Returns (best_free,
    evaluations, achieved_tol, incomplete); achieved_tol is None if no
    round ran.
    """
    lo, hi = np.zeros(ndim), np.ones(ndim)  # _shrink_box returns new arrays
    evaluations = 0
    best_rate = -math.inf
    best_free = None
    achieved = None
    incomplete = False

    def search(rates, point_at):
        nonlocal evaluations, best_rate, best_free
        evaluations += rates.size
        idx = int(np.argmax(rates))
        improvement = float(rates[idx]) - best_rate
        if improvement > 0.0:
            best_rate, best_free = float(rates[idx]), point_at(idx)
        return improvement

    points, rates = warm
    search(rates, lambda idx: points[idx].copy())

    n_rounds = config.rounds + 1  # coarse pass plus refinement rounds
    stalled = 0
    for rnd in range(n_rounds):
        remaining = config.budget - evaluations
        if remaining < 2 ** ndim:
            incomplete = True
            break
        per_round = max(2 ** ndim, remaining // (n_rounds - rnd))
        axes = _grid_axes(lo, hi, per_round, config.resolution)
        achieved = max(search(evaluate(axes), lambda idx: _grid_point(axes, idx)), 0.0)
        # a single flat round can just mean the shrunk grid re-hit the
        # incumbent point, so require two stalled rounds before stopping
        stalled = stalled + 1 if achieved < config.tolerance else 0
        if rnd > 0 and stalled >= 2:
            break
        lo, hi = _shrink_box(best_free, lo, hi)
    return best_free, evaluations, achieved, incomplete


def optimize_splits(
    geometry: NetworkGeometry,
    prop: PropagationModel,
    power: PowerConfig,
    k: int,
    perm: Permutation = None,
    mode: CombiningMode = CombiningMode.COHERENT,
    config: OptimizerConfig = OptimizerConfig(),
    warm=(),
) -> OptimumResult:
    """Max-min rate over all feasible split matrices for a fixed channel.

    One batch before the grid rates ``own_only``, whose point is
    (1, 0, ..., 0) per row, and each ``warm`` optimum of a smaller k on the
    same channel and relay order, embedded exactly with zero forward mass,
    which keeps optimized rates monotone in k by feasible-set nesting.  So
    the result is never an unrated point, nor below ``own_only``.  Each grid
    round goes through ``_rate_round``: where a row coordinate of 1.0 spends
    the row's mass, later coordinates repeat a split already in the round,
    and the kernel rates each distinct split once, in slabs of at most
    ``_SLAB_ELEMENTS`` split fractions, without an array of free
    coordinates.  ``evaluations`` still counts every grid point searched,
    repeats included, and since the kernel rates a candidate alike in any
    batch, neither the slabs nor the repeats change a rate or a result.
    A search the budget truncates is flagged ``incomplete`` and logs one
    WARNING on the ``relayrates`` logger.
    """
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
    seeded = (seeds, batch_min_rate(problem, free_to_fractions(seeds, lengths)))
    best_free, evals, achieved, incomplete = _refine(
        lambda axes: _rate_round(problem, axes, lengths), ndim, config, seeded)
    if incomplete:
        log.warning("split search at T=%d, k=%d, %s mode truncated: %d free coordinates, "
                    "budget %d, %d evaluations", t_count, k, mode.value, ndim,
                    config.budget, evals)
    fracs = free_to_fractions(best_free[None, :], lengths)[0]
    splits = SplitMatrix.from_flat(fracs, lengths)
    return result_for(splits, evals, achieved, incomplete, best_free)


def optimize_rates_over_k(
    geometry: NetworkGeometry,
    prop: PropagationModel,
    power: PowerConfig,
    ks,
    perm: Permutation = None,
    mode: CombiningMode = CombiningMode.COHERENT,
    config: OptimizerConfig = OptimizerConfig(),
) -> dict:
    """Optimized rate per k, warm-starting each k from every smaller one but
    k = 1, whose embedding is the ``own_only`` point every search rates."""
    results = {}
    for k in sorted(set(int(k) for k in ks)):
        warm = [res for prev_k, res in results.items() if prev_k > 1]
        results[k] = optimize_splits(geometry, prop, power, k, perm, mode, config, warm)
    return results

"""Deterministic nested grid-refinement for the max-min rate problems.

The objective min_t R_t has kinks where the bottleneck receiver switches,
so derivative-free search over the split simplices is used
throughout.  Simplex rows with m entries are parameterized by m-1 free
coordinates in [0, 1] via the stick-breaking map, which keeps every grid
point feasible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import NetworkGeometry, PowerConfig, PropagationModel
from .coding import CombiningMode, Permutation, SplitMatrix, row_lengths
from .gaussian import RateReport, _check_sizes, rate_report
from .kernel import batch_min_rate, compile_chain

SHRINK = 5.0  # each refinement round narrows the box by this factor per axis


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
    """Best operating point found, re-evaluated through the reference path."""

    rate: float
    report: RateReport
    splits: SplitMatrix
    evaluations: int
    achieved_tolerance: float
    incomplete: bool
    permutation: Optional[Permutation] = None


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


def fractions_to_free(fracs, lengths) -> np.ndarray:
    """Inverse stick-breaking map for a single concatenated fraction vector."""
    fracs = np.asarray(fracs, dtype=float)
    free = []
    at = 0
    for m in lengths:
        rem = 1.0
        for j in range(m - 1):
            v = fracs[at + j] / rem if rem > 1e-300 else 0.0
            free.append(min(max(v, 0.0), 1.0))
            rem -= fracs[at + j]
        at += m
    return np.array(free)


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


def _grid_fractions(axes, lengths):
    """``free_to_fractions(_grid_candidates(axes), lengths)``, built one
    simplex row at a time from that row's own axes.

    A row's fractions depend only on its own free coordinates, whose axes are
    contiguous in the C-order grid, so each of its columns is the row's
    sub-grid map broadcast over the points before and after those axes.
    """
    sizes = [axis.size for axis in axes]
    out = np.empty((math.prod(sizes), sum(lengths)), order="F")
    at_f, at_c = 0, 0
    for m in lengths:
        sub = free_to_fractions(_grid_candidates(axes[at_f:at_f + m - 1]), (m,))
        view = (math.prod(sizes[:at_f]), sub.shape[0], math.prod(sizes[at_f + m - 1:]))
        for j in range(m):
            out[:, at_c + j].reshape(view)[...] = sub[:, j, None]
        at_f += m - 1
        at_c += m
    return out


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


def _refine(evaluate, ndim, config, warm=None):
    """Shared refinement loop over the unit box [0, 1]^ndim.

    Each round is the ``ij`` grid over ndim axes; ``evaluate`` maps the
    round's list of axes to the (n,) rates of its points in C order, the
    order of ``_grid_candidates(axes)``.  ``warm`` is an optional pair
    (points, rates) of candidates the caller has rated, an (n, ndim) array
    and its (n,) rates, searched before the first round.  Returns
    (best_free, evaluations, achieved_tol, incomplete).
    """
    lo, hi = np.zeros(ndim), np.ones(ndim)  # _shrink_box returns new arrays
    evaluations = 0
    best_rate = -math.inf
    best_free = (lo + hi) / 2.0
    achieved = math.inf
    incomplete = False

    def search(rates, point_at):
        nonlocal evaluations, best_rate, best_free
        evaluations += rates.size
        idx = int(np.argmax(rates))
        improvement = float(rates[idx]) - best_rate
        if improvement > 0.0:
            best_rate, best_free = float(rates[idx]), point_at(idx)
        return improvement

    if warm is not None:
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

    if not math.isfinite(achieved):
        achieved = 0.0
    return best_free, evaluations, achieved, incomplete


def optimize_splits(
    geometry: NetworkGeometry,
    prop: PropagationModel,
    power: PowerConfig,
    k: int,
    perm: Permutation = None,
    mode: CombiningMode = CombiningMode.COHERENT,
    config: OptimizerConfig = OptimizerConfig(),
    extra_splits=(),
) -> OptimumResult:
    """Max-min rate over all feasible split matrices for a fixed channel.

    ``extra_splits`` are always-evaluated candidates (e.g. the optimum of a
    smaller k embedded with zero forward mass), which keeps optimized rates
    monotone in k by feasible-set nesting.  They are rated as points, in one
    batch before the grid; each grid round reaches the kernel as split
    fractions built from its axes by ``_grid_fractions``, without its (n,
    ndim) array of free coordinates.
    """
    t_count = geometry.node_count
    perm = perm or Permutation.identity(t_count)
    _check_sizes(geometry, power, perm)
    lengths = tuple(row_lengths(t_count, k, perm)[t] for t in range(1, t_count))
    ndim = sum(m - 1 for m in lengths)

    def result_for(splits, evaluations, achieved, incomplete):
        report = rate_report(geometry, prop, power, splits, k, perm, mode)
        return OptimumResult(
            rate=report.rate,
            report=report,
            splits=splits,
            evaluations=evaluations,
            achieved_tolerance=achieved,
            incomplete=incomplete,
            permutation=perm,
        )

    if ndim == 0:
        only = SplitMatrix(tuple((1.0,) * 1 for _ in lengths))
        return result_for(only, 1, 0.0, False)

    problem = compile_chain(geometry, prop, power, k, perm, mode)

    def evaluate(axes):
        return batch_min_rate(problem, _grid_fractions(axes, lengths))

    extras = []
    for sm in extra_splits:
        sm.validate_for(t_count, k, perm)
        extras.append(fractions_to_free(sm.as_flat(), lengths))
    warm = None
    if extras:
        points = np.stack(extras)
        warm = (points, batch_min_rate(problem, free_to_fractions(points, lengths)))

    best_free, evals, achieved, incomplete = _refine(evaluate, ndim, config, warm)
    fracs = free_to_fractions(best_free[None, :], lengths)[0]
    splits = SplitMatrix.from_flat(fracs, lengths)
    return result_for(splits, evals, achieved, incomplete)


def optimize_rates_over_k(
    geometry: NetworkGeometry,
    prop: PropagationModel,
    power: PowerConfig,
    ks,
    perm: Permutation = None,
    mode: CombiningMode = CombiningMode.COHERENT,
    config: OptimizerConfig = OptimizerConfig(),
) -> dict:
    """Optimized rate per k, warm-starting each k from the smaller ones."""
    t_count = geometry.node_count
    perm = perm or Permutation.identity(t_count)
    results = {}
    for k in sorted(set(int(k) for k in ks)):
        extras = [
            res.splits.embed(t_count, prev_k, k, perm)
            for prev_k, res in results.items()
            if prev_k < k
        ]
        results[k] = optimize_splits(
            geometry, prop, power, k, perm, mode, config, extra_splits=extras
        )
    return results

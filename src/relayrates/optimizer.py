"""Deterministic searches for the max-min split problem.

The objective min_t R_t has kinks where the bottleneck receiver switches.
Both modes search by LP steps (``_lp_steps``): a linear model of every
receiver's signal and interference around the incumbent, one max-min LP
over the split simplices, solved by the dense simplex method of ``lp`` and
warm-started from the previous step's basis, and the LP point rated.  Under
fading each receiver's SINR is linear-fractional in the split fractions, so
the model is exact and the steps are generalized Dinkelbach steps
(``_dinkelbach``) whose last LP's dual weights certify the optimum.
Coherent combining adds amplitudes, which the LP cannot express: there
``_linearized`` rebuilds the model at each incumbent from one-sided secants
and rates points along the segment to the LP point, until a step gains less
than ``_TOLERANCE``.  Where every round of a grid can place three points on
each axis (up to 10 free coordinates at the default budget) a coherent
search runs the derivative-free grid instead (``_grid_search``): simplex
rows with m entries are parameterized by m-1 free coordinates in [0, 1] via
the stick-breaking map, which keeps every grid point feasible, and a coarse
grid of up to ``_RESOLUTION`` points per axis over the unit box is followed
by up to ``_ROUNDS`` finer grids, each over a box ``SHRINK`` times narrower
per axis around the incumbent, until two rounds in a row gain less than
``_TOLERANCE``.  The searches' one setting is the evaluation budget, the
candidates they may rate, which trades time for quality.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .channel import NetworkGeometry, PowerConfig, PropagationModel, _whole
from .coding import CombiningMode, Permutation, SplitMatrix, row_lengths
from .gaussian import RateReport, _check_sizes, rate_report
from .kernel import batch_min_rate, batch_powers, compile_chain
from . import lp

log = logging.getLogger("relayrates")

DEFAULT_BUDGET = 400_000  # candidates a search may rate
SHRINK = 5.0  # each refinement round narrows the box by this factor per axis
_RESOLUTION = 21  # grid points per axis, fewer where a round's budget is short
_ROUNDS = 3  # refinement rounds after the coarse pass
_TOLERANCE = 1e-6  # two grid rounds in a row, or one coherent LP step, that gain less end it
_GAP = 1e-12  # LP steps end once their certified model SINR gap is this small, relative
_SECANT = 1e-2  # a coherent LP step's model: a forward secant of this step per fraction
_LINE = 2.0 ** -np.arange(8)  # a coherent LP step rates these shares of its segment

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
    ``achieved_tolerance`` is 0.0 where no split is free; otherwise, in
    coherent mode, the last grid round's or LP step's gain (0.0 after an LP
    that finds no better point of its model; None where the budget funded
    no LP step), and under fading the rate gap (bits) the last LP certifies
    (None if the simplex method hit its pivot cap).  Left out of equality:
    ``free``, the unit-box point ``splits`` maps from (empty if no split is
    free, as at k = 1), which centres a larger-k coherent grid search that
    this result seeds, and ``dual``, the fading search's certifying weights
    lambda by receiver (node 2..T; None in coherent mode and at k = 1):
    lambda >= 0 sums to 1, and the sum over split rows of
    max_c sum_r lambda_r (S_rc - g D_rc) is at most g sum_r lambda_r N_r
    for the result's lowest SINR g, S and D being the receivers' signal and
    interference power per split column and N their noise, so no split has
    a higher lowest SINR than g (up to ``achieved_tolerance``)."""

    rate: float
    report: RateReport
    splits: SplitMatrix
    evaluations: int
    achieved_tolerance: Optional[float]
    incomplete: bool
    permutation: Optional[Permutation] = None
    free: np.ndarray = field(default_factory=lambda: np.empty(0), compare=False)
    dual: Optional[np.ndarray] = field(default=None, compare=False)


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

    One batch first rates ``own_only``, all power on each transmitter's own
    sub-signal, and each ``warm`` optimum of a smaller k on the same channel
    and relay order as its ``embed``ding at k, with zero forward mass, which
    keeps optimized rates monotone in k by feasible-set nesting.  So the
    result is never an unrated point, nor below ``own_only``.  Its best
    point is the incumbent, which a search in the combining ``mode`` then
    improves: ``_dinkelbach``'s exact LP steps under fading; for coherent
    combining ``_grid_search``'s grid rounds where a round can place at
    least three points on every axis (3^ndim within the first round's share
    of the budget left, up to 10 free coordinates at the default budget),
    and elsewhere ``_linearized``'s LP steps, seeded also with the fading
    optimum of the same chain.  ``budget`` bounds the candidates it rates;
    LP steps the budget cuts short are flagged ``incomplete`` and log one
    WARNING on the ``relayrates`` logger.
    """
    budget = _check_budget(budget)
    t_count = geometry.node_count
    perm = perm or Permutation.identity(t_count)
    _check_sizes(geometry, power, perm)
    lengths = tuple(map(row_lengths(t_count, k, perm).get, range(1, t_count)))
    ndim = sum(m - 1 for m in lengths)

    def result_for(fracs, evaluations, achieved, incomplete, free, dual=None):
        splits = SplitMatrix.from_flat(fracs, lengths)
        report = rate_report(geometry, prop, power, splits, k, perm, mode)
        for array in (free, dual):
            if array is not None:
                array.setflags(write=False)
        return OptimumResult(report.rate, report, splits, evaluations, achieved,
                             incomplete, perm, free, dual)

    own_only = SplitMatrix.own_only(t_count, k, perm)
    if ndim == 0:
        return result_for(own_only.as_flat(), 1, 0.0, False, np.empty(0))

    for res in warm:
        if res.permutation != perm or any(len(r) > m for r, m in zip(res.splits.rows, lengths)):
            raise ValueError(f"warm optima must be of a k up to {k} on the same relay order")
    problem = compile_chain(geometry, prop, power, k, perm, mode)

    seeds = np.stack([own_only.as_flat()] + [
        res.splits.embed(t_count, max(map(len, res.splits.rows)), k, perm).as_flat()
        for res in warm])
    rates = batch_min_rate(problem, seeds)
    idx = int(np.argmax(rates))
    best, best_rate, evaluations = seeds[idx], float(rates[idx]), len(seeds)

    dual = None
    if mode is CombiningMode.FADING:
        method = "Dinkelbach LP steps"
        best, evaluations, achieved, incomplete, dual = _dinkelbach(
            problem, lengths, best, best_rate, evaluations, budget)
    elif 3 ** ndim <= (budget - evaluations) // (_ROUNDS + 1):
        free = ([_seed_point(np.empty(0), ((1.0,),) * len(lengths), lengths)]
                + [_seed_point(res.free, res.splits.rows, lengths) for res in warm])[idx]
        best, free, evaluations, achieved = _grid_search(
            problem, lengths, best, free, best_rate, evaluations, budget)
        return result_for(best, evaluations, achieved, False, free)
    else:
        method = "linearized LP steps"
        if evaluations + 2 < budget:
            # the fading optimum, as a fading search from own_only finds it
            # (the channel's layout is the same in either mode), with one
            # evaluation kept to rate it here unless it is own_only
            fading = dataclasses.replace(problem, coherent=False)
            rate = float(batch_min_rate(fading, seeds[:1])[0])
            point, evaluations, *_ = _dinkelbach(fading, lengths, seeds[0], rate,
                                                 evaluations + 1, budget - 1)
            if not np.array_equal(point, seeds[0]):
                rate = float(batch_min_rate(problem, point[None, :])[0])
                evaluations += 1
                if rate > best_rate:
                    best, best_rate = point, rate
        best, evaluations, achieved, incomplete = _linearized(
            problem, lengths, best, best_rate, evaluations, budget)
    if incomplete:
        log.warning("split search at T=%d, k=%d, %s mode truncated: %s cut short, "
                    "%d free coordinates, budget %d, %d evaluations", t_count, k,
                    mode.value, method, ndim, budget, evaluations)
    return result_for(best, evaluations, achieved, incomplete,
                      _fractions_to_free(best, lengths), dual)


def _grid_search(problem, lengths, best, best_free, best_rate, evaluations, budget):
    """The coherent search from the incumbent ``best`` (fractions) at
    ``best_free`` (its unit-box point): up to 1 + ``_ROUNDS`` grid rounds,
    the first over the unit box of free coordinates.  Each takes an equal
    share of the budget left, at as many points per axis as fit it, at most
    ``_RESOLUTION``; its first best point in C order becomes the incumbent
    if better, and its gain is the achieved tolerance.  Two rounds in a row
    that gain less than ``_TOLERANCE`` end the search (one flat round can
    just mean the shrunk grid re-hit the incumbent); otherwise the box
    shrinks ``SHRINK`` times per axis around the incumbent, inside the unit
    box.

    ``optimize_splits`` runs it only where 3^ndim fits the first round's
    share, q = (budget - evaluations) // (1 + ``_ROUNDS``).  Round r then
    has at least (1 + ``_ROUNDS`` - r) q left and takes at most that over
    1 + ``_ROUNDS`` - r, so every round's share is at least q: each places
    three points or more on every axis, and the budget never cuts the
    search short.

    Each round goes through ``_rate_round``: where a row coordinate of 1.0
    spends the row's mass, later coordinates repeat a split already in the
    round, and the kernel rates each distinct split once, in slabs of at
    most ``_SLAB_ELEMENTS`` split fractions, without an array of free
    coordinates.  ``evaluations`` still counts every grid point searched,
    repeats included, and since the kernel rates a candidate alike in any
    batch, neither the slabs nor the repeats change a rate or a result.

    Returns the incumbent's fractions and point, the evaluations and the
    last round's gain."""
    ndim = best_free.size
    lo, hi = np.zeros(ndim), np.ones(ndim)
    stalled = 0
    for rnd in range(_ROUNDS + 1):
        per_round = (budget - evaluations) // (_ROUNDS + 1 - rnd)
        per_axis = _RESOLUTION
        while per_axis ** ndim > per_round:
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
            best = free_to_fractions(best_free[None, :], lengths)[0]
        achieved = max(improvement, 0.0)
        stalled = stalled + 1 if achieved < _TOLERANCE else 0
        if stalled == 2:
            break
        width = (hi - lo) / SHRINK
        lo = np.maximum(best_free - width / 2.0, 0.0)
        hi = np.minimum(lo + width, 1.0)
        lo = np.maximum(hi - width, 0.0)
    return best, best_free, evaluations, achieved


def _lp_columns(lengths):
    """The LP's columns, the flat indices of the fractions in rows of more
    than one, each column's row among those rows, and the flat indices of
    the one-fraction rows."""
    lengths = np.array(lengths)
    moving = lengths > 1
    free = np.flatnonzero(np.repeat(moving, lengths))
    group = np.repeat(np.arange(np.count_nonzero(moving)), lengths[moving])
    return free, group, (np.cumsum(lengths) - 1)[~moving]


def _lp_steps(problem, lengths, best, best_rate, evaluations, budget, model, line, tolerance):
    """LP steps from the incumbent ``best`` (fractions) of rate ``best_rate``.

    ``model(x, left)`` is a linear model of every receiver's signal and
    interference-plus-noise power around the split x, (spent, s0, n0, S, D)
    with signal s0 + S @ y and interference plus noise n0 + D @ y over the
    fractions y of the LP's columns (``_lp_columns``), bought with ``spent``
    of the ``left`` evaluations, or None if ``left`` cannot buy it.  At the
    incumbent x_k, of lowest model SINR gamma and interference-plus-noise
    d_r, a step solves the LP (``lp``)

        max z  s.t.  ((S_r - gamma D_r) @ y - (gamma n0_r - s0_r)) / d_r >= z

    over the split simplices, warm-started from the previous step's basis.
    Its dual weights lambda_r (proportional to the LP's receiver duals over
    d_r, summing to 1) bound every split's lowest model SINR by gamma + z /
    sum_r(mu_r N_r / d_r), N_r the receiver's noise, so z = 0 certifies x_k
    optimal for the model.  Until the bound is within ``_GAP`` of gamma, the
    LP point, clipped at 0 with each row rescaled to sum 1, gives the
    candidates (1 - t) x_k + t y for t in ``line``, rated in one
    ``batch_min_rate`` call; the first best becomes the incumbent if it
    rates higher.  The steps stop after a step that gains no more than
    ``tolerance`` or whose LP hit its pivot cap, and when the budget cannot
    buy a step's model or its candidates, which flags them incomplete.

    Returns the incumbent's fractions, the evaluations, whether the budget
    truncated the steps, the last step's gain (None if none was rated, 0.0
    after a certificate), and the last LP's solution, gamma, bound and d_r
    (None if no LP was solved)."""
    free, group, _ = _lp_columns(lengths)
    offset = np.flatnonzero(np.diff(group, prepend=-1))
    noise = problem.noise
    basis, incomplete, gain, last = None, False, None, None
    while True:
        linear = model(best, budget - evaluations)
        if linear is None:
            incomplete = True
            break
        spent, sig0, int0, gains, interference = linear
        evaluations += spent
        x = best[free]
        denom = int0 + interference @ x
        gamma = float(np.min((sig0 + gains @ x) / denom))
        a = (gains - gamma * interference) / denom[:, None]
        beta = (gamma * int0 - sig0) / denom
        # per row, the first of its largest fractions
        start = np.lexsort((-x, group))[offset]
        sol = lp.solve(a, beta, group, start, basis)
        basis = sol.basis
        bound = gamma + max(sol.z, 0.0) / float(sol.weights @ (noise / denom))
        last = sol, gamma, bound, denom
        if sol.optimal and bound - gamma <= _GAP * gamma:
            gain = 0.0
            break
        if evaluations + len(line) > budget:
            incomplete = True
            break
        point = np.maximum(sol.x, 0.0)
        point /= np.bincount(group, point)[group]
        cand = best.copy()
        cand[free] = point
        cands = (1.0 - line)[:, None] * best + line[:, None] * cand
        rates = batch_min_rate(problem, cands)
        evaluations += len(line)
        idx = int(np.argmax(rates))
        gain = float(rates[idx]) - best_rate
        if gain > 0.0:
            best, best_rate = cands[idx], float(rates[idx])
        if not (gain > tolerance and sol.optimal):
            break      # an LP cut off at its pivot cap is not solved again
    return best, evaluations, incomplete, gain, last


def _dinkelbach(problem, lengths, best, best_rate, evaluations, budget):
    """The fading search from the incumbent ``best`` (fractions):
    generalized Dinkelbach steps (Crouzeix, Ferland and Schaible), exact for
    a max-min of linear-fractional SINRs.

    Under fading receiver r's signal and interference powers are S_r @ x and
    D_r @ x, the kernel's powers at ``np.eye(n_cols)``, and its SINR is
    S_r @ x / (N_r + D_r @ x): the model of ``_lp_steps`` is exact, costs no
    evaluation and certifies the optimum.  Each step rates its LP point
    alone (one evaluation), and the steps stop when it does not rate higher
    (the LP has then gained no more than rounding).

    Returns the incumbent's fractions, the evaluations, the rate gap the
    last LP certifies (None if the simplex method hit its pivot cap),
    whether the budget truncated the search, and the certifying weights
    lambda by receiver."""
    gains, interference = batch_powers(problem, np.eye(problem.n_cols))
    free, _, fixed = _lp_columns(lengths)
    exact = (0, gains[:, fixed].sum(axis=1),
             problem.noise + interference[:, fixed].sum(axis=1),
             gains[:, free], interference[:, free])
    best, evaluations, incomplete, _, (sol, gamma, bound, denom) = _lp_steps(
        problem, lengths, best, best_rate, evaluations, budget,
        lambda x, left: exact, np.ones(1), 0.0)
    if not sol.optimal:
        return best, evaluations, None, incomplete, None
    weighted = sol.weights / denom
    achieved = 0.5 * float(np.log2((1.0 + bound) / (1.0 + gamma)))
    return best, evaluations, achieved, incomplete, weighted / weighted.sum()


def _linearized(problem, lengths, best, best_rate, evaluations, budget):
    """The coherent search from the incumbent ``best`` (fractions) where no
    grid round fits: ``_lp_steps`` on a model of each power rebuilt at each
    incumbent, a sequential-LP method of the convex-concave family (Lipp and
    Boyd).  Coherent band powers are concave in the fractions and their
    derivatives are infinite where a fraction is 0, so the model takes a
    one-sided secant of step ``_SECANT`` up each LP column, rated with the
    incumbent in one ``batch_powers`` call (one evaluation per point); each
    step then rates the ``_LINE`` points of the segment to the LP point, and
    the steps stop once one gains less than ``_TOLERANCE``, or, incomplete,
    where the budget left cannot buy a whole step.

    Returns the incumbent's fractions, the evaluations, the last step's
    gain (None where the budget bought no step) and whether the budget
    truncated the steps."""
    free = _lp_columns(lengths)[0]
    at = np.arange(1, free.size + 1)

    def secant(x, left):
        if left < free.size + 1 + _LINE.size:
            return None      # the budget cannot buy the whole step
        points = np.repeat(x[None, :], free.size + 1, axis=0)
        points[at, free] += _SECANT
        step = points[at, free] - x[free]
        sig, inter = batch_powers(problem, points)
        gains = (sig[:, 1:] - sig[:, :1]) / step
        interference = (inter[:, 1:] - inter[:, :1]) / step
        return (free.size + 1, sig[:, 0] - gains @ x[free],
                problem.noise + inter[:, 0] - interference @ x[free], gains, interference)

    best, evaluations, incomplete, gain, _ = _lp_steps(
        problem, lengths, best, best_rate, evaluations, budget, secant, _LINE, _TOLERANCE)
    return best, evaluations, None if gain is None else max(gain, 0.0), incomplete


def _fractions_to_free(fracs, lengths) -> np.ndarray:
    """A unit-box point that ``free_to_fractions`` maps to ``fracs`` up to
    rounding: per row, each fraction but the last over the mass left before
    it, and 0.0 once none is left."""
    free, at = [], 0
    for m in lengths:
        left = 1.0
        for v in fracs[at:at + m - 1]:
            free.append(min(v / left, 1.0) if left > 0.0 else 0.0)
            left -= v
        at += m
    return np.array(free)


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

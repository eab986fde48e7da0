"""A dense simplex method for the max-min LP of the split search's LP steps.

Under fading every band power is linear in the split fractions, and a
coherent LP step models them as linear (see ``optimizer``), so one step of
the split search is the LP

    maximize z  subject to  a @ x - z >= beta,  x >= 0,
                            sum of x over each group = 1,

one inequality per receiver and one simplex (group) per transmitter row.
``solve`` runs the revised primal simplex method on an explicit basis
inverse: slacks s >= 0 turn the inequalities into a @ x - s - z = beta, z
is free and stays basic, and the entering column is the most negative
reduced cost in z's row of B^-1 [A | -I | -1] (Dantzig's rule), or, after
``_DANTZIG_PIVOTS`` pivots per constraint, the first (Bland's rule, which
cannot cycle).  B^-1 is inverted once per LP and then updated by one rank-1
step per pivot, and after pivots one step of iterative refinement sheds
their rounding from B^-1 b and z's row.  It starts from the previous step's
basis where that basis is still feasible, and otherwise from a vertex: one
column per group, z at the lowest receiver's value and that receiver's
slack nonbasic, which is feasible for any data.

The LP is small (receivers plus rows constraints, fractions plus receivers
columns) and dense, so B^-1 is a numpy array; importing ``scipy.optimize``
would raise a process's peak memory from about 30 to 77 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# a reduced cost or pivot entry this far below zero (above, for pivots),
# relative to the largest entry of the data, counts as nonzero
_OPT_TOL = 1e-13
_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-12
# Dantzig pivots per constraint before Bland's rule takes over, and the cap
# on all pivots per constraint
_DANTZIG_PIVOTS = 4
_MAX_PIVOTS = 50


@dataclass(frozen=True)
class LpSolution:
    """An optimal vertex: fractions ``x``, value ``z``, the receivers' dual
    weights ``weights`` (>= 0, summing to 1: every split x satisfies
    weights @ (a @ x - beta) <= z), the ``basis`` to warm-start the next LP
    from, and whether the simplex method reached optimality (``optimal``)
    before its pivot cap."""

    x: np.ndarray
    z: float
    weights: np.ndarray
    basis: tuple
    optimal: bool


def _inverse(cols: np.ndarray, basis) -> np.ndarray:
    """B^-1 of the constraint columns ``cols`` at ``basis``; None where B is
    singular."""
    try:
        inverse = np.linalg.inv(cols[:, basis])
    except np.linalg.LinAlgError:
        return None
    return inverse if np.all(np.isfinite(inverse)) else None


def solve(a: np.ndarray, beta: np.ndarray, group: np.ndarray, start: np.ndarray,
          basis=None) -> LpSolution:
    """Maximize z subject to a @ x - z >= beta, x >= 0 and, for each group g,
    the sum of x over the columns with ``group == g`` equal to 1.

    ``a`` is (receivers, columns), ``group`` numbers the columns' groups
    0, 1, ... in order, and ``start[g]`` is a column of group g: the vertex
    the search starts from unless ``basis``, a previous solution's, is
    feasible for this data."""
    n_rcv, n = a.shape
    n_grp = int(group[-1]) + 1
    z_col = n + n_rcv
    cols = np.zeros((n_rcv + n_grp, z_col + 1))
    cols[:n_rcv, :n] = a
    cols[:n_rcv, n:z_col] = -np.eye(n_rcv)
    cols[:n_rcv, z_col] = -1.0
    cols[n_rcv + group, np.arange(n)] = 1.0
    rhs = np.concatenate([beta, np.ones(n_grp)])

    inverse = None
    if basis is not None:
        basis = list(basis)
        inverse = _inverse(cols, basis)
        if inverse is not None:
            value = inverse @ rhs
            rows = np.arange(len(basis)) != basis.index(z_col)
            if np.any(value[rows] < -_FEAS_TOL * (1.0 + np.abs(value).max())):
                inverse = None
    if inverse is None:
        lowest = int(np.argmin(a[:, start].sum(axis=1) - beta))
        basis = list(start) + [z_col] + [n + r for r in range(n_rcv) if r != lowest]
        inverse = _inverse(cols, basis)
        value = inverse @ rhs
    iz = basis.index(z_col)

    scale = 1.0 + np.abs(cols[:, :z_col]).max()
    optimal, fresh, row = False, True, inverse[iz]
    for pivots in range(_MAX_PIVOTS * len(basis)):
        cost = row @ cols[:, :z_col]
        if pivots < _DANTZIG_PIVOTS * len(basis):
            enter = int(np.argmin(cost))
            if cost[enter] >= -_OPT_TOL * scale:
                enter = None
        else:
            below = np.flatnonzero(cost < -_OPT_TOL * scale)
            enter = int(below[0]) if below.size else None
        if enter is None:
            # after pivots, one step of iterative refinement sheds most of
            # their rounding from B^-1 b and z's row of B^-1; stop only if
            # still optimal there
            if not fresh:
                basic = cols[:, basis]
                value = value + inverse @ (rhs - basic @ value)
                row = row - (row @ basic - np.eye(len(basis))[iz]) @ inverse
                fresh = True
                if (row @ cols[:, :z_col]).min() < -_OPT_TOL * scale:
                    continue
            optimal = True
            break
        col = inverse @ cols[:, enter]
        ok = col > _PIVOT_TOL * np.abs(col).max()
        ok[iz] = False
        ratio = np.divide(np.maximum(value, 0.0), col, out=np.full(len(basis), np.inf),
                          where=ok)
        leave = int(np.argmin(ratio))
        if not ok[leave]:
            break      # unbounded: cannot happen, x lies in a bounded set
        inverse[leave] /= col[leave]
        value[leave] /= col[leave]
        col[leave] = 0.0
        inverse -= np.outer(col, inverse[leave])
        value -= col * value[leave]
        basis[leave] = enter
        fresh, row = False, inverse[iz]

    x = np.zeros(z_col)
    at = np.array(basis)
    x[at[at < z_col]] = value[at < z_col]
    # z's row at the slack columns, -e_r in receiver row r
    weights = np.maximum(-row[:n_rcv], 0.0)
    total = weights.sum()
    weights = weights / total if total > 0.0 else np.full(n_rcv, 1.0 / n_rcv)
    return LpSolution(x[:n], float(value[iz]), weights, tuple(basis), optimal)

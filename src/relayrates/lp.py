"""A dense simplex method for the max-min LP of the fading split search.

Under fading every band power is linear in the split fractions, so one
Dinkelbach step of the split search (see ``optimizer``) is the LP

    maximize z  subject to  a @ x - z >= beta,  x >= 0,
                            sum of x over each group = 1,

one inequality per receiver and one simplex (group) per transmitter row.
``solve`` runs the primal simplex method on its full tableau: slacks s >= 0
turn the inequalities into a @ x - s - z = beta, z is free and stays basic,
and the entering column is the most negative entry of z's row (Dantzig's
rule), or, after ``_DANTZIG_PIVOTS`` pivots per constraint, the first
(Bland's rule, which cannot cycle).  It starts from the previous step's
basis where that basis is still feasible, and otherwise from a vertex: one
column per group, z at the lowest receiver's value and that receiver's
slack nonbasic, which is feasible for any data.

The LP is small (receivers plus rows constraints, fractions plus receivers
columns) and dense, so the tableau is a numpy array; importing
``scipy.optimize`` would raise a process's peak memory from about 30 to 77
MB.
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


def _tableau(matrix: np.ndarray, basis) -> np.ndarray:
    """B^-1 [A | b] of the constraint ``matrix`` [A | b] at ``basis``, its
    basic columns set to the exact identity; None where B is singular."""
    try:
        tab = np.linalg.solve(matrix[:, basis], matrix)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(tab)):
        return None
    tab[:, basis] = np.eye(len(basis))
    return tab


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
    z_col, rhs = n + n_rcv, n + n_rcv + 1
    matrix = np.zeros((n_rcv + n_grp, rhs + 1))
    matrix[:n_rcv, :n] = a
    matrix[:n_rcv, n:z_col] = -np.eye(n_rcv)
    matrix[:n_rcv, z_col] = -1.0
    matrix[:n_rcv, rhs] = beta
    matrix[n_rcv + group, np.arange(n)] = 1.0
    matrix[n_rcv:, rhs] = 1.0

    tab = None
    if basis is not None:
        basis = list(basis)
        tab = _tableau(matrix, basis)
        if tab is not None:
            rows = np.arange(len(basis)) != basis.index(z_col)
            if np.any(tab[rows, rhs] < -_FEAS_TOL * (1.0 + np.abs(tab[:, rhs]).max())):
                tab = None
    if tab is None:
        lowest = int(np.argmin(a[:, start].sum(axis=1) - beta))
        basis = list(start) + [z_col] + [n + r for r in range(n_rcv) if r != lowest]
        tab = _tableau(matrix, basis)
    iz = basis.index(z_col)

    scale = 1.0 + np.abs(matrix[:, :z_col]).max()
    optimal, fresh = False, True
    for pivots in range(_MAX_PIVOTS * len(basis)):
        cost = tab[iz, :z_col]
        if pivots < _DANTZIG_PIVOTS * len(basis):
            enter = int(np.argmin(cost))
            if cost[enter] >= -_OPT_TOL * scale:
                enter = None
        else:
            below = np.flatnonzero(cost < -_OPT_TOL * scale)
            enter = int(below[0]) if below.size else None
        if enter is None:
            # after pivots, re-solve at the final basis to shed their
            # rounding, and stop only if it is still optimal there
            if not fresh:
                refreshed = _tableau(matrix, basis)
                tab = tab if refreshed is None else refreshed
                fresh = True
                if tab[iz, :z_col].min() < -_OPT_TOL * scale:
                    continue
            optimal = True
            break
        col = tab[:, enter]
        ok = col > _PIVOT_TOL * np.abs(col).max()
        ok[iz] = False
        ratio = np.divide(np.maximum(tab[:, rhs], 0.0), col, out=np.full(len(basis), np.inf),
                          where=ok)
        leave = int(np.argmin(ratio))
        if not ok[leave]:
            break      # unbounded: cannot happen, x lies in a bounded set
        tab[leave] /= tab[leave, enter]
        pivot_row = tab[leave].copy()
        tab -= np.outer(col, pivot_row)
        tab[leave] = pivot_row
        basis[leave] = enter
        fresh = False

    x = np.zeros(z_col)
    at = np.array(basis)
    x[at[at < z_col]] = tab[at < z_col, rhs]
    weights = np.maximum(tab[iz, n:z_col], 0.0)
    total = weights.sum()
    weights = weights / total if total > 0.0 else np.full(n_rcv, 1.0 / n_rcv)
    return LpSolution(x[:n], float(tab[iz, rhs]), weights, tuple(basis), optimal)

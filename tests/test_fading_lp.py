"""The fading split search: exact Dinkelbach LP steps and their certificate.

Under fading the search solves the max-min problem exactly, so its rate is
checked against the grid reference (never lower) and against its own dual
certificate, computed here from ``reference_fading_gains``, which shares no
code with the library's kernel."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relayrates
from relayrates import (
    CombiningMode,
    Permutation,
    PowerConfig,
    PropagationModel,
    SplitMatrix,
    batch_min_rate,
    build_linear_geometry,
    compile_chain,
    optimize_rates_over_k,
    optimize_splits,
    row_lengths,
)
from relayrates import lp, optimizer

from reference import reference_fading_gains, reference_optimize_splits

PROP = PropagationModel()
FADING = CombiningMode.FADING


@st.composite
def fading_searches(draw):
    """A non-uniform chain (T 4-12, spacings U(0.2, 3)), its power per node,
    a random relay order, a hop depth k in 1..T-1 and a set of smaller hop
    depths whose optima seed it."""
    t_count = draw(st.integers(4, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacings = rng.uniform(0.2, 3.0, t_count - 1)
    perm = Permutation((1, *rng.permutation(range(2, t_count)).tolist(), t_count))
    k = draw(st.integers(1, t_count - 1))
    smaller = sorted(draw(st.sets(st.integers(1, k - 1))) if k > 1 else [])
    return spacings, draw(st.floats(0.5, 100.0)), perm, k, smaller


def search(spacings, watts, perm, k, smaller, budget=20_000):
    """The chain, its power and the fading search at k, seeded by the
    searches at the ``smaller`` hop depths."""
    geom = build_linear_geometry(spacings)
    power = PowerConfig.uniform(geom.node_count, watts)
    warm = [optimize_splits(geom, PROP, power, j, perm, FADING, budget) for j in smaller]
    return geom, power, warm, optimize_splits(geom, PROP, power, k, perm, FADING, budget, warm)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(fading_searches())
def test_fading_search_reaches_the_grid(case):
    spacings, watts, perm, k, _ = case
    geom, power, _, res = search(spacings, watts, perm, k, [])
    grid = reference_optimize_splits(geom, PROP, power, k, perm, FADING, 20_000)
    assert res.rate >= grid.rate - 1e-12
    assert not res.incomplete


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(fading_searches())
def test_fading_seed_batch_is_rated_bit_for_bit(case):
    # the first batch rates own_only and then each warm optimum's embedding
    # at k, exactly as SplitMatrix builds them; it is the one kernel call
    spacings, watts, perm, k, smaller = case
    geom = build_linear_geometry(spacings)
    t_count = geom.node_count
    power = PowerConfig.uniform(t_count, watts)
    warm = [optimize_splits(geom, PROP, power, j, perm, FADING) for j in smaller]
    with mock.patch.object(optimizer, "batch_min_rate", wraps=batch_min_rate) as rated, \
            mock.patch.object(lp, "solve", wraps=lp.solve) as solved:
        res = optimize_splits(geom, PROP, power, k, perm, FADING, warm=warm)
    if k == 1:
        assert rated.call_count == 0 and res.evaluations == 1
        return
    seeds = rated.call_args_list[0].args[1]
    wants = [SplitMatrix.own_only(t_count, k, perm)] + [
        res.splits.embed(t_count, j, k, perm) for j, res in zip(smaller, warm)]
    assert seeds.tobytes() == np.stack([w.as_flat() for w in wants]).tobytes()
    # the exact model rates one point of every LP but a certifying last one,
    # and each rated candidate counts
    assert rated.call_count == 1
    assert res.evaluations - len(wants) in (solved.call_count - 1, solved.call_count)


def certificate_gap(res, geom, power, k, perm):
    """(lhs - rhs) / rhs of the certificate sum over rows of
    max_c sum_r lambda_r (S_rc - g D_rc) <= g sum_r lambda_r N_r, g the
    result's lowest SINR: at most 0 where no split has a higher one."""
    gains, interference, noise = reference_fading_gains(geom, PROP, power, k, perm)
    g = min(rec.p_sig / (rec.noise + rec.p_int) for rec in res.report.records)
    weighed = res.dual @ (gains - g * interference)
    ends = np.cumsum([len(row) for row in res.splits.rows])
    lhs = sum(part.max() for part in np.split(weighed, ends[:-1]))
    rhs = g * (res.dual @ noise)
    return (lhs - rhs) / rhs


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(fading_searches())
def test_dual_weights_certify_the_fading_optimum(case):
    spacings, watts, perm, k, smaller = case
    geom, power, _, res = search(spacings, watts, perm, k, smaller)
    if k == 1:
        assert res.dual is None and res.achieved_tolerance == 0.0
        return
    # the reference gains give the library's powers at the result
    gains, interference, _ = reference_fading_gains(geom, PROP, power, k, perm)
    x = res.splits.as_flat()
    np.testing.assert_allclose([rec.p_sig for rec in res.report.records], gains @ x,
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose([rec.p_int for rec in res.report.records], interference @ x,
                               rtol=1e-12, atol=0.0)
    lam = res.dual
    assert np.all(lam >= 0.0) and abs(lam.sum() - 1.0) <= 1e-12
    assert certificate_gap(res, geom, power, k, perm) <= 1e-9
    assert 0.0 <= res.achieved_tolerance <= 1e-9


def test_truncated_fading_search_is_flagged(caplog):
    # a budget of the seed batch alone funds no LP point: where the seeds
    # are not optimal the search says so, and still certifies a gap
    rng = np.random.default_rng(3)
    geom = build_linear_geometry(rng.uniform(0.5, 1.5, 5))
    power = PowerConfig.uniform(6, 10.0)
    full = optimize_splits(geom, PROP, power, 3, mode=FADING)
    assert not full.incomplete and full.evaluations > 1
    with caplog.at_level("WARNING", logger="relayrates"):
        cut = optimize_splits(geom, PROP, power, 3, mode=FADING, budget=1)
    assert cut.incomplete and cut.evaluations == 1 and cut.rate < full.rate
    assert cut.achieved_tolerance > 1e-9
    assert "fading mode truncated" in caplog.records[0].getMessage()


@st.composite
def max_min_lps(draw):
    """A dense LP of ``lp.solve``'s form: 1-8 receivers, 1-6 groups of 1-4
    columns, entries U(-1, 3), and a second draw of the same shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = rng.integers(1, 5, draw(st.integers(1, 6)))
    n_rcv = draw(st.integers(1, 8))
    group = np.repeat(np.arange(sizes.size), sizes)
    draws = [(rng.uniform(-1.0, 3.0, (n_rcv, sizes.sum())), rng.uniform(-1.0, 1.0, n_rcv))
             for _ in range(2)]
    return draws, group, np.cumsum(sizes) - sizes


def assert_certified(sol, a, beta, group):
    # primal: x on the simplices, every row at least z; dual: the weights'
    # bound equals z
    assert np.all(sol.x >= -1e-12)
    np.testing.assert_allclose(np.bincount(group, sol.x), 1.0, atol=1e-12)
    assert np.all(a @ sol.x - beta >= sol.z - 1e-10)
    assert np.all(sol.weights >= 0.0) and abs(sol.weights.sum() - 1.0) <= 1e-12
    weighed = sol.weights @ a
    bound = sum(weighed[group == g].max() for g in range(group[-1] + 1)) - sol.weights @ beta
    assert bound == pytest.approx(sol.z, abs=1e-10)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(max_min_lps())
def test_lp_solutions_are_certified_cold_and_warm(problem):
    (first, second), group, start = problem
    cold = lp.solve(*first, group, start)
    assert cold.optimal
    assert_certified(cold, *first, group)
    # from the first LP's basis the second reaches its own optimum
    warm = lp.solve(*second, group, start, cold.basis)
    again = lp.solve(*second, group, start)
    assert warm.optimal and again.optimal
    assert_certified(warm, *second, group)
    assert warm.z == pytest.approx(again.z, abs=1e-10)


def test_fading_search_never_imports_scipy():
    # importing scipy.optimize would raise a process's peak memory from
    # about 30 to 77 MB, so the LP is numpy's alone
    code = ("import sys, relayrates as rr\n"
            "geom = rr.build_linear_geometry([1.0, 0.7, 1.3, 0.9, 1.1])\n"
            "res = rr.optimize_rates_over_k(geom, rr.PropagationModel(),\n"
            "    rr.PowerConfig.uniform(6, 10.0), (1, 2, 3, 4, 5), mode=rr.CombiningMode.FADING)\n"
            "assert res[5].dual is not None\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(relayrates.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_fading_rates_over_k_are_monotone_and_certified():
    rng = np.random.default_rng(11)
    geom = build_linear_geometry(rng.uniform(0.5, 1.5, 9))
    power = PowerConfig.uniform(10, 20.0)
    perm = Permutation((1, *rng.permutation(range(2, 10)).tolist(), 10))
    results = optimize_rates_over_k(geom, PROP, power, range(1, 10), perm, FADING)
    rates = [results[k].rate for k in range(1, 10)]
    assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
    for k in range(2, 10):
        assert certificate_gap(results[k], geom, power, k, perm) <= 1e-9
    lengths = row_lengths(10, 9, perm)
    assert tuple(map(len, results[9].splits.rows)) == tuple(lengths[t] for t in range(1, 10))

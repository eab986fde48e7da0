import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayrates import (
    CombiningMode,
    OptimizerConfig,
    Permutation,
    PowerConfig,
    PropagationModel,
    SplitMatrix,
    build_linear_geometry,
    optimize_permutation,
    optimize_rates_over_k,
    optimize_spacing,
    optimize_splits,
    rate_report,
)
from relayrates import optimizer
from relayrates.optimizer import (
    _grid_candidates,
    _grid_fractions,
    fractions_to_free,
    free_to_fractions,
)

from reference import reference_optimize_splits, reference_rates_over_k

PROP = PropagationModel()


def unit_chain(node_count, power=10.0):
    geom = build_linear_geometry([1.0] * (node_count - 1))
    return geom, PowerConfig.uniform(node_count, power)


def test_stick_breaking_round_trip():
    rng = np.random.default_rng(0)
    lengths = (4, 3, 2, 1)
    for _ in range(50):
        fracs = np.concatenate([rng.dirichlet(np.ones(m)) for m in lengths])
        free = fractions_to_free(fracs, lengths)
        back = free_to_fractions(free[None, :], lengths)[0]
        assert np.allclose(back, fracs, atol=1e-12)


def test_stick_breaking_stays_on_simplex():
    rng = np.random.default_rng(1)
    lengths = (3, 2)
    free = rng.random((200, 3))
    fracs = free_to_fractions(free, lengths)
    assert np.all(fracs >= 0.0)
    assert np.allclose(fracs[:, :3].sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(fracs[:, 3:].sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("sizes", [(21,), (5, 3), (2, 7, 4), (3, 2, 5, 2)])
def test_grid_candidates_match_meshgrid(sizes):
    rng = np.random.default_rng(len(sizes))
    axes = [np.sort(rng.uniform(0.0, 1.0, n)) for n in sizes]
    want = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")]).T
    got = _grid_candidates(axes)
    assert np.array_equal(got, want)
    assert got.flags.f_contiguous


@st.composite
def grid_rows(draw, max_points=4096):
    """Simplex row lengths, either drawn or the omniscient strategy's
    descending ones, and grid axes of 1-5 points over their free coordinates."""
    if draw(st.booleans()):
        lengths = tuple(range(draw(st.integers(2, 7)) - 1, 0, -1))
    else:
        lengths = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axes, points = [], 1
    for _ in range(sum(m - 1 for m in lengths)):
        size = draw(st.integers(1, max(1, min(5, max_points // points))))
        points *= size
        axes.append(np.sort(rng.uniform(0.0, 1.0, size)))
    return lengths, axes


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(grid_rows())
def test_grid_fractions_match_the_expanded_map(rows):
    lengths, axes = rows
    got = _grid_fractions(axes, lengths)
    assert np.array_equal(got, free_to_fractions(_grid_candidates(axes), lengths))
    assert got.flags.f_contiguous


def assert_same_result(got, want):
    assert got.rate.hex() == want.rate.hex()
    assert got.achieved_tolerance.hex() == want.achieved_tolerance.hex()
    assert (got.evaluations, got.incomplete) == (want.evaluations, want.incomplete)
    assert ([[v.hex() for v in row] for row in got.splits.rows]
            == [[v.hex() for v in row] for row in want.splits.rows])
    assert got.report == want.report
    assert got.permutation == want.permutation


@pytest.mark.parametrize("budget", [400_000, 2_000])
@pytest.mark.parametrize("mode", list(CombiningMode))
@pytest.mark.parametrize("node_count", [5, 6, 12])
def test_search_matches_the_expanded_grid_reference(node_count, mode, budget):
    # ties, evaluation counts, tolerances and truncation are pinned exactly:
    # a last-bit change in one candidate can move the optimum far more
    rng = np.random.default_rng(node_count)
    geom = build_linear_geometry(rng.uniform(0.5, 1.5, node_count - 1))
    power = PowerConfig.uniform(node_count, 10.0)
    config = OptimizerConfig(budget=budget)
    ks = range(1, node_count)
    perm = Permutation((1, *rng.permutation(range(2, node_count)).tolist(), node_count))
    for k in ks:
        assert_same_result(
            optimize_splits(geom, PROP, power, k, perm, mode, config),
            reference_optimize_splits(geom, PROP, power, k, perm, mode, config))
    got = optimize_rates_over_k(geom, PROP, power, ks, mode=mode, config=config)
    want = reference_rates_over_k(geom, PROP, power, ks, mode=mode, config=config)
    assert got.keys() == want.keys()
    for k in ks:
        assert_same_result(got[k], want[k])


def test_warm_start_past_the_array_dimension_limit():
    # at T=40, k=3 has 75 free coordinates: 2**75 grid corners exceed any
    # budget, so only the warm starts are rated, as points
    rng = np.random.default_rng(40)
    geom = build_linear_geometry(rng.uniform(0.2, 3.0, 39))
    res = optimize_rates_over_k(geom, PROP, PowerConfig.uniform(40, 10.0), (1, 2, 3))
    assert res[3].incomplete and res[3].evaluations == 2
    assert res[1].rate <= res[2].rate <= res[3].rate


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(resolution=1)
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=0.0)


def test_k1_has_no_freedom():
    geom, power = unit_chain(5)
    res = optimize_splits(geom, PROP, power, 1)
    assert res.splits == SplitMatrix.own_only(5, 1)
    assert res.evaluations == 1


def test_optimum_is_reproducible():
    geom, power = unit_chain(5)
    a = optimize_splits(geom, PROP, power, 2)
    b = optimize_splits(geom, PROP, power, 2)
    assert a.rate == b.rate
    assert a.splits == b.splits
    assert a.evaluations == b.evaluations


def test_result_reevaluated_through_reference_path():
    geom, power = unit_chain(5, 3.0)
    res = optimize_splits(geom, PROP, power, 2)
    want = rate_report(geom, PROP, power, res.splits, 2)
    assert res.rate == want.rate
    assert res.report == want


def test_optimum_beats_fixed_heuristics():
    geom, power = unit_chain(5)
    res = optimize_splits(geom, PROP, power, 2)
    for guess in (SplitMatrix.own_only(5, 2), SplitMatrix.uniform(5, 2),
                  SplitMatrix.two_hop([0.5, 0.5, 0.5])):
        assert res.rate >= rate_report(geom, PROP, power, guess, 2).rate - 1e-9


def test_twohop_optimum_matches_scalar_scan():
    # 3-node chain has a single free split; compare against a fine scan
    geom, power = unit_chain(3)
    res = optimize_splits(geom, PROP, power, 2,
                          config=OptimizerConfig(rounds=6, tolerance=1e-12))
    best = max(
        rate_report(geom, PROP, power, SplitMatrix.two_hop([a]), 2).rate
        for a in np.linspace(0.0, 1.0, 20001)
    )
    assert res.rate >= best - 1e-8


def test_extra_splits_never_hurt():
    geom, power = unit_chain(6)
    plain = optimize_splits(geom, PROP, power, 3)
    seeded = optimize_splits(
        geom, PROP, power, 3,
        extra_splits=[SplitMatrix.uniform(6, 3)],
    )
    assert seeded.rate >= rate_report(
        geom, PROP, power, SplitMatrix.uniform(6, 3), 3
    ).rate - 1e-12
    assert seeded.rate >= plain.rate - 1e-9


def test_rates_over_k_monotone():
    rng = np.random.default_rng(7)
    geom = build_linear_geometry(rng.uniform(0.5, 1.5, 4))
    power = PowerConfig.uniform(5, 8.0)
    results = optimize_rates_over_k(geom, PROP, power, [1, 2, 3, 4])
    rates = [results[k].rate for k in (1, 2, 3, 4)]
    assert all(rates[i] <= rates[i + 1] + 1e-9 for i in range(3))


def test_budget_exhaustion_is_flagged():
    geom, power = unit_chain(6)
    res = optimize_splits(geom, PROP, power, 5,
                          config=OptimizerConfig(budget=100))
    assert res.incomplete


def test_identity_permutation_optimal_on_a_line():
    geom, power = unit_chain(5)
    res = optimize_permutation(geom, PROP, power, 2,
                               config=OptimizerConfig(budget=20_000))
    assert res.permutation == Permutation.identity(5)


def test_permutation_result_is_best_ordering_with_summed_evaluations():
    geom = build_linear_geometry([1.0, 0.7, 1.3, 0.9])
    power = PowerConfig.uniform(5, 10.0)
    config = OptimizerConfig(budget=5_000)
    best, total = None, 0
    for relays in itertools.permutations(range(2, 5)):
        res = optimize_splits(geom, PROP, power, 2, Permutation((1,) + relays + (5,)),
                              config=config)
        total += res.evaluations
        if best is None or res.rate > best.rate:
            best = res
    got = optimize_permutation(geom, PROP, power, 2, config=config)
    assert got.evaluations == total
    assert got == replace(best, evaluations=total)


def test_permutation_search_capped():
    geom, power = unit_chain(10)
    with pytest.raises(ValueError):
        optimize_permutation(geom, PROP, power, 1)


def test_spacing_search_beats_equal_spacing():
    power = PowerConfig.uniform(5, 10.0)
    equal = rate_report(
        build_linear_geometry([1.0] * 4), PROP, power,
        SplitMatrix.own_only(5, 1), 1,
    ).rate
    res = optimize_spacing(4.0, 5, 1, power, PROP,
                           config=OptimizerConfig(budget=20_000))
    assert res.geometry is not None
    assert res.geometry.distance(1, 5) == pytest.approx(4.0, rel=1e-9)
    assert res.rate >= equal - 1e-9
    # the source-side hops shrink to lift the early bottlenecks
    assert res.geometry.distance(1, 2) < 1.0


@pytest.mark.parametrize("node_count", [6, 7, 8])
def test_spacing_search_keeps_every_spacing_apart(node_count):
    # stick-breaking coordinates at the edge of their box once shrank the
    # last spacing to 1e-3 ** (T-2) of the span, below the geometry's floor
    span = node_count - 1.0
    res = optimize_spacing(span, node_count, 1, PowerConfig.uniform(node_count, 10.0),
                           PROP, OptimizerConfig(resolution=5, rounds=2, budget=3000))
    spacings = np.diff([res.geometry.distance(1, t) for t in range(1, node_count + 1)])
    assert spacings.sum() == pytest.approx(span, rel=1e-9)
    assert spacings.min() >= 1e-3 * span / (node_count - 1) * (1 - 1e-9)
    assert res.rate == pytest.approx(rate_report(
        res.geometry, PROP, PowerConfig.uniform(node_count, 10.0),
        SplitMatrix.own_only(node_count, 1), 1).rate, rel=1e-12)


def test_spacing_search_runs_one_split_search_per_grid_point():
    # the winner's split search is kept from the grid, not run again
    outer, inner = [], []

    def recording(func, sink):
        def call(*args):
            sink.append(func(*args))
            return sink[-1]
        return call

    with mock.patch.object(optimizer, "_refine", recording(optimizer._refine, outer)), \
         mock.patch.object(optimizer, "optimize_splits", recording(optimize_splits, inner)):
        res = optimize_spacing(4.0, 5, 2, PowerConfig.uniform(5, 10.0), PROP,
                               OptimizerConfig(resolution=3, rounds=1, budget=20_000))
    # every split search runs _refine too; the spacing search's ends last
    grid_points = outer[-1][1]
    assert len(inner) == grid_points > 0
    assert res.evaluations == sum(r.evaluations for r in inner)
    best = max(inner, key=lambda r: r.rate)
    assert (res.rate, res.splits) == (best.rate, best.splits)


def test_spacing_search_without_a_round_rates_the_box_midpoint():
    # 9 free spacing coordinates need 2**9 geometries per round, more than
    # the outer budget of 300, so no round runs and the midpoint is rated
    power = PowerConfig.uniform(11, 10.0)
    res = optimize_spacing(10.0, 11, 2, power, PROP)
    fracs = free_to_fractions(np.full((1, 9), 0.5), (10,))[0]
    geom = build_linear_geometry(10.0 * (1e-4 + 0.999 * fracs))
    inner = OptimizerConfig(resolution=9, rounds=2, budget=2000)
    want = optimize_splits(geom, PROP, power, 2, config=inner)
    assert res.rate == want.rate
    assert res.splits == want.splits
    assert np.array_equal(res.geometry.distances, geom.distances)
    assert res.incomplete
    assert res.evaluations == want.evaluations


def test_fading_mode_threads_through():
    geom, power = unit_chain(5)
    coh = optimize_splits(geom, PROP, power, 2, mode=CombiningMode.COHERENT)
    fad = optimize_splits(geom, PROP, power, 2, mode=CombiningMode.FADING)
    assert fad.rate <= coh.rate + 1e-9

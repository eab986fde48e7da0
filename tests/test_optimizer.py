import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relayrates import (
    CombiningMode,
    OptimizerConfig,
    Permutation,
    PowerConfig,
    PropagationModel,
    SplitMatrix,
    build_linear_geometry,
    optimize_rates_over_k,
    optimize_splits,
    rate_report,
)
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


@st.composite
def chains_over_k(draw):
    """A non-uniform chain (T 4-8, spacings U(0.2, 3)), its power per node,
    a relay order, a mode and a non-empty subset of the hop depths 1..T-1."""
    t_count = draw(st.integers(4, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacings = rng.uniform(0.2, 3.0, t_count - 1)
    relays = rng.permutation(range(2, t_count)).tolist()
    ks = draw(st.sets(st.integers(1, t_count - 1), min_size=1))
    return (spacings, draw(st.floats(0.5, 20.0)), Permutation((1, *relays, t_count)),
            draw(st.sampled_from(list(CombiningMode))), ks)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(chains_over_k())
@example((np.random.default_rng(7).uniform(0.5, 1.5, 4), 8.0, Permutation.identity(5),
          CombiningMode.COHERENT, {1, 2, 3, 4}))
def test_rates_over_k_monotone(chain):
    # each result is a feasible split rated by the reference path, and the
    # rates never fall as k grows: a larger k can always embed a smaller one
    spacings, watts, perm, mode, ks = chain
    geom = build_linear_geometry(spacings)
    power = PowerConfig.uniform(geom.node_count, watts)
    results = optimize_rates_over_k(geom, PROP, power, ks, perm, mode,
                                    OptimizerConfig(budget=5000))
    assert sorted(results) == sorted(ks)
    for k, res in results.items():
        res.splits.validate_for(geom.node_count, k, perm)
        assert res.rate == rate_report(geom, PROP, power, res.splits, k, perm, mode).rate
    rates = [results[k].rate for k in sorted(ks)]
    assert all(a <= b + 1e-9 for a, b in zip(rates, rates[1:]))


def test_budget_exhaustion_is_flagged():
    geom, power = unit_chain(6)
    res = optimize_splits(geom, PROP, power, 5,
                          config=OptimizerConfig(budget=100))
    assert res.incomplete


def test_fading_mode_threads_through():
    geom, power = unit_chain(5)
    coh = optimize_splits(geom, PROP, power, 2, mode=CombiningMode.COHERENT)
    fad = optimize_splits(geom, PROP, power, 2, mode=CombiningMode.FADING)
    assert fad.rate <= coh.rate + 1e-9

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    rate_report,
    row_lengths,
)
from relayrates import kernel, optimizer
from relayrates.kernel import batch_powers
from relayrates.optimizer import (
    DEFAULT_BUDGET,
    _grid_candidates,
    _grid_slabs,
    _product_fractions,
    _rate_round,
    _row_maps,
    free_to_fractions,
)

from reference import reference_optimize_splits, reference_rates_over_k

PROP = PropagationModel()


def unit_chain(node_count, power=10.0):
    geom = build_linear_geometry([1.0] * (node_count - 1))
    return geom, PowerConfig.uniform(node_count, power)


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
    got = _product_fractions(list(_row_maps(axes, lengths)))
    assert np.array_equal(got, free_to_fractions(_grid_candidates(axes), lengths))
    assert got.flags.f_contiguous


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(grid_rows(), st.integers(1, 64), st.integers(1, 6))
def test_grid_slabs_cover_the_grid_in_order(rows, elements, n_cols):
    _, axes = rows
    with mock.patch.object(optimizer, "_SLAB_ELEMENTS", elements):
        slabs = list(_grid_slabs(axes, n_cols))
    cap = max(1, elements // n_cols)
    assert all(len(_grid_candidates(slab)) <= cap for slab in slabs)
    assert np.array_equal(np.concatenate([_grid_candidates(slab) for slab in slabs]),
                          _grid_candidates(axes))


@st.composite
def grid_rounds(draw, max_points=3000):
    """A non-uniform chain (T 3-8, spacings U(0.2, 3)) with a random relay
    order, a mode, a hop depth up to T-1 of at most 10 free coordinates and
    one grid round over them: 2-5 points per axis (2 once the round nears
    ``max_points``), each axis over [0, 1], over a box edge ending at 1.0 or
    inside (0, 1), and a slab budget."""
    t_count = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacings = rng.uniform(0.2, 3.0, t_count - 1)
    perm = Permutation((1, *rng.permutation(range(2, t_count)).tolist(), t_count))
    lengths = {k: tuple(row_lengths(t_count, k, perm)[t] for t in range(1, t_count))
               for k in range(1, t_count)}
    k = draw(st.sampled_from([k for k, ls in lengths.items() if sum(ls) - len(ls) <= 10]))
    axes, points = [], 1
    for _ in range(sum(lengths[k]) - len(lengths[k])):
        size = draw(st.integers(2, max(2, min(5, max_points // (2 * points)))))
        points *= size
        box = draw(st.sampled_from(["unit", "touching", "interior"]))
        lo = 0.0 if box == "unit" else rng.uniform(0.0, 0.8)
        hi = rng.uniform(lo + 0.01, 0.99) if box == "interior" else 1.0
        axes.append(np.linspace(lo, hi, size))
    return (spacings, perm, draw(st.sampled_from(list(CombiningMode))), k, lengths[k], axes,
            draw(st.sampled_from([64, 512, 1 << 20])))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(grid_rounds())
def test_round_rates_match_the_expanded_grid(round_):
    # rating each distinct split once and expanding the rates back gives
    # every grid point the rate of its own fractions, bit for bit
    spacings, perm, mode, k, lengths, axes, elements = round_
    geom = build_linear_geometry(spacings)
    problem = compile_chain(geom, PROP, PowerConfig.uniform(geom.node_count, 10.0),
                            k, perm, mode)
    want = batch_min_rate(problem, free_to_fractions(_grid_candidates(axes), lengths))
    with mock.patch.object(optimizer, "_SLAB_ELEMENTS", elements):
        got = _rate_round(problem, axes, lengths)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2, 3])
def test_kernel_rates_each_distinct_split_once(k):
    # at k = 3 rows of 3 fractions repeat wherever their first coordinate is
    # 1.0, and the kernel skips those repeats; rows of at most 2 never repeat
    geom, power = unit_chain(6)
    with mock.patch.object(optimizer, "batch_min_rate", wraps=batch_min_rate) as rated:
        res = optimize_splits(geom, PROP, power, k, budget=20_000)
    cands = sum(len(call.args[1]) for call in rated.call_args_list)
    assert cands < res.evaluations if k == 3 else cands == res.evaluations


def hex_or_none(value):
    return None if value is None else value.hex()


def assert_same_result(got, want):
    assert got.rate.hex() == want.rate.hex()
    assert hex_or_none(got.achieved_tolerance) == hex_or_none(want.achieved_tolerance)
    assert (got.evaluations, got.incomplete) == (want.evaluations, want.incomplete)
    assert ([[v.hex() for v in row] for row in got.splits.rows]
            == [[v.hex() for v in row] for row in want.splits.rows])
    assert got.report == want.report
    assert got.permutation == want.permutation


def grid_funded(res, budget, seeds=1):
    """Whether a coherent search of ``res``'s free coordinates after
    ``seeds`` rated seeds runs the grid: 3 points per axis fit the first
    round's share of the budget left."""
    ndim = sum(len(row) - 1 for row in res.splits.rows)
    return 3 ** ndim <= (budget - seeds) // 4


def lp_step_cost(res):
    """Evaluations one coherent LP step of ``res``'s search costs: its
    model rates the incumbent and one secant point per fraction in a row of
    more than one, and its line search 8 points."""
    return sum(len(row) for row in res.splits.rows if len(row) > 1) + 1 + 8


@pytest.mark.parametrize("node_count,mode,budget", [
    *((node_count, mode, budget) for node_count in (5, 6, 12) for mode in CombiningMode
      for budget in (400_000, 2_000, 2_500)),
    (4, CombiningMode.FADING, 400_000),
    (7, CombiningMode.FADING, 5_000),
])
def test_search_matches_the_expanded_grid_reference(node_count, mode, budget):
    # coherent searches with 3 points per axis in every grid round run the
    # grid: ties, evaluation counts and tolerances are pinned exactly, since a
    # last-bit change in one candidate can move the optimum far more.  The
    # rest run LP steps, as fading searches do, and must reach the grid's
    # rate (fading: to 1e-12; coherent: to 1e-5, as LP steps are local)
    # within the budget, and end complete unless the budget left cannot buy
    # another step (at 2_000 and 2_500, T = 12 k = 10 warm-started from k = 9
    # still gains 6e-5 bits a step when it runs out)
    rng = np.random.default_rng(node_count)
    geom = build_linear_geometry(rng.uniform(0.5, 1.5, node_count - 1))
    power = PowerConfig.uniform(node_count, 10.0)
    ks = range(1, node_count)
    perm = Permutation((1, *rng.permutation(range(2, node_count)).tolist(), node_count))

    def check(got, grid, seeds=1):
        if mode is CombiningMode.COHERENT and grid_funded(got, budget, seeds):
            assert_same_result(got, grid)
        elif mode is CombiningMode.FADING:
            assert got.rate >= grid.rate - 1e-12
            assert not got.incomplete and got.evaluations <= budget
        else:
            assert got.rate >= grid.rate - 1e-5 and got.evaluations <= budget
            assert not got.incomplete or budget - got.evaluations < lp_step_cost(got)
        assert got.permutation == grid.permutation

    for k in ks:
        check(optimize_splits(geom, PROP, power, k, perm, mode, budget),
              reference_optimize_splits(geom, PROP, power, k, perm, mode, budget))
    got = optimize_rates_over_k(geom, PROP, power, ks, mode=mode, budget=budget)
    want = reference_rates_over_k(geom, PROP, power, ks, mode=mode, budget=budget)
    assert got.keys() == want.keys()
    for k in ks:
        # every smaller k but k = 1 warm-starts k
        check(got[k], want[k], seeds=max(1, k - 1))


@pytest.mark.parametrize("node_count,budget,short", [
    (7, 4 * 3 ** 5 + 1, 4 * 3 ** 5), (12, DEFAULT_BUDGET, 4 * 3 ** 10)])
def test_grid_runs_while_every_axis_gets_three_points(node_count, budget, short):
    # k = 2 has node_count - 2 free coordinates, and the seed batch rates
    # own_only: where the grid's 4 rounds fit 3**ndim points each, the grid
    # runs, bit for bit the expanded reference; one coordinate past it, or
    # at a budget one short of the threshold, no grid round is rated
    spacings = np.random.default_rng(node_count).uniform(0.2, 3.0, node_count)
    geom = build_linear_geometry(spacings[:-1])
    power = PowerConfig.uniform(node_count, 10.0)
    assert_same_result(optimize_splits(geom, PROP, power, 2, budget=budget),
                       reference_optimize_splits(geom, PROP, power, 2, budget=budget))
    for geom, power, budget in ((geom, power, short),
                                (build_linear_geometry(spacings),
                                 PowerConfig.uniform(node_count + 1, 10.0), budget)):
        with mock.patch.object(optimizer, "_rate_round", wraps=_rate_round) as rounds:
            res = optimize_splits(geom, PROP, power, 2, budget=budget)
        assert rounds.call_count == 0
        assert not res.incomplete and res.evaluations <= budget


@pytest.mark.parametrize("budget", [5_000, 400_000])
def test_coherent_grid_stalls_at_the_pinned_tolerance(budget):
    # on this chain the k = 2 grid has a round that gains between 1e-6 and
    # 1e-3 (and so does k = 3 at 5_000): a stall tolerance of 1e-3 would end
    # it one round early, so the reference's 1e-6 pins the constant
    geom = build_linear_geometry([0.5, 2.0, 2.9])
    power = PowerConfig.uniform(4, 1.0)
    for k in (1, 2, 3):
        assert_same_result(optimize_splits(geom, PROP, power, k, budget=budget),
                           reference_optimize_splits(geom, PROP, power, k, budget=budget))


def test_warm_start_past_the_array_dimension_limit():
    # at T=40, k=3 has 75 free coordinates: 2**75 grid corners exceed any
    # budget, so LP steps search from the warm starts and finish within it,
    # once a step gains less than the stall tolerance
    rng = np.random.default_rng(40)
    geom = build_linear_geometry(rng.uniform(0.2, 3.0, 39))
    res = optimize_rates_over_k(geom, PROP, PowerConfig.uniform(40, 10.0), (1, 2, 3))
    for k in (2, 3):
        assert not res[k].incomplete and 2 < res[k].evaluations <= DEFAULT_BUDGET
        assert 0.0 <= res[k].achieved_tolerance < optimizer._TOLERANCE
    assert res[1].rate < res[2].rate < res[3].rate


def test_complete_search_logs_nothing(caplog):
    geom = build_linear_geometry(np.random.default_rng(1).uniform(0.2, 3.0, 4))
    with caplog.at_level("DEBUG", logger="relayrates"):
        res = optimize_splits(geom, PROP, PowerConfig.uniform(5, 10.0), 2)
    assert not res.incomplete and isinstance(res.achieved_tolerance, float)
    assert caplog.records == []


def test_optimizer_config_validation():
    # the budget is the search's one setting: the grid's resolution, round
    # count and stall tolerance are fixed, not arguments
    geom, power = unit_chain(5)
    for key in ("resolution", "rounds", "tolerance", "config"):
        with pytest.raises(TypeError, match=key):
            optimize_splits(geom, PROP, power, 2, **{key: 3})
    for bad, message in ((0, "budget must be a positive integer, got 0"),
                         (-5.0, "budget must be a positive integer, got -5"),
                         (1.5, "budget must be an integer, got 1.5"),
                         (True, "budget must be an integer, got True"),
                         ("300", "budget must be an integer, got '300'"),
                         (None, "budget must be an integer, got None")):
        with pytest.raises(ValueError, match=re.escape(message)):
            optimize_splits(geom, PROP, power, 2, budget=bad)
        with pytest.raises(ValueError, match=re.escape(message)):
            optimize_rates_over_k(geom, PROP, power, (1, 2), budget=bad)
    assert optimize_splits(geom, PROP, power, 2, budget=300.0) == \
        optimize_splits(geom, PROP, power, 2, budget=np.int64(300))


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
    res = optimize_splits(geom, PROP, power, 2)
    best = max(
        rate_report(geom, PROP, power, SplitMatrix.two_hop([a]), 2).rate
        for a in np.linspace(0.0, 1.0, 20001)
    )
    assert res.rate >= best - 1e-8


def test_warm_starts_never_hurt():
    geom, power = unit_chain(6)
    k2 = optimize_splits(geom, PROP, power, 2, budget=300)
    plain = optimize_splits(geom, PROP, power, 3)
    seeded = optimize_splits(geom, PROP, power, 3, warm=[k2])
    assert seeded.rate >= rate_report(
        geom, PROP, power, k2.splits.embed(6, 2, 3), 3
    ).rate - 1e-12
    assert seeded.rate >= plain.rate - 1e-9


def test_warm_optima_must_fit_the_search():
    geom, power = unit_chain(6)
    k3 = optimize_splits(geom, PROP, power, 3, budget=300)
    with pytest.raises(ValueError, match="warm optima"):
        optimize_splits(geom, PROP, power, 2, warm=[k3])
    with pytest.raises(ValueError, match="warm optima"):
        optimize_splits(geom, PROP, power, 4, Permutation((1, 3, 2, 4, 5, 6)), warm=[k3])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_never_ends_below_own_only(seed, caplog):
    # at T=12 k=3 a budget of 20 funds the seeds and the fading seed but no
    # LP step (one costs 38 evaluations): the search must still return a
    # point it rated, never the unrated box midpoint, and say in one WARNING
    # which method was cut short
    geom = build_linear_geometry(np.random.default_rng(seed).uniform(0.2, 3.0, 11))
    power = PowerConfig.uniform(12, 10.0)
    with caplog.at_level("WARNING", logger="relayrates"):
        res = optimize_splits(geom, PROP, power, 3, budget=20)
    assert res.rate >= rate_report(geom, PROP, power, SplitMatrix.own_only(12, 3), 3).rate
    assert res.evaluations <= 20 and res.incomplete and res.achieved_tolerance is None
    (record,) = caplog.records
    assert record.levelname == "WARNING" and record.name == "relayrates"
    message = record.getMessage()
    for part in ("T=12", "k=3", "coherent mode", "linearized LP steps cut short",
                 "19 free coordinates", "budget 20"):
        assert part in message, message


@st.composite
def warm_searches(draw):
    """A non-uniform chain (T 3-9, spacings U(0.2, 3)) with a random relay
    order, a mode, a hop depth k >= 2, a non-empty set of smaller ones and a
    seed for their search points, whose coordinates are drawn from [0, 1]
    with about a third of them forced to 0 or 1."""
    t_count = draw(st.integers(3, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacings = rng.uniform(0.2, 3.0, t_count - 1)
    perm = Permutation((1, *rng.permutation(range(2, t_count)).tolist(), t_count))
    k = draw(st.integers(2, t_count - 1))
    smaller = draw(st.sets(st.integers(1, k - 1), min_size=1))
    return (spacings, perm, draw(st.sampled_from(list(CombiningMode))), k, sorted(smaller),
            draw(st.integers(0, 2**32 - 1)))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(warm_searches())
def test_warm_optima_are_rated_as_their_embedding(search):
    # the first batch rates own_only and then each warm optimum's embedding
    # at k, bit for bit: no round trip through the fractions moves a seed
    spacings, perm, mode, k, smaller, seed = search
    geom = build_linear_geometry(spacings)
    t_count = geom.node_count
    power = PowerConfig.uniform(t_count, 10.0)
    rng = np.random.default_rng(seed)
    warm = []
    for k_from in smaller:
        res = optimize_splits(geom, PROP, power, k_from, perm, mode,
                              budget=50)
        lengths = tuple(row_lengths(t_count, k_from, perm)[t] for t in range(1, t_count))
        free = rng.random(res.free.size)
        forced = rng.random(free.size) < 1 / 3
        free[forced] = rng.integers(0, 2, forced.sum())
        fracs = free_to_fractions(free[None, :], lengths)[0]
        warm.append(dataclasses.replace(
            res, free=free, splits=SplitMatrix.from_flat(fracs, lengths)))
    with mock.patch.object(optimizer, "batch_min_rate", wraps=batch_min_rate) as rated:
        optimize_splits(geom, PROP, power, k, perm, mode, budget=1, warm=warm)
    seeds = rated.call_args_list[0].args[1]
    assert len(seeds) == 1 + len(warm)
    wants = [SplitMatrix.own_only(t_count, k, perm)] + [
        res.splits.embed(t_count, k_from, k, perm) for k_from, res in zip(smaller, warm)]
    for got, want in zip(seeds, wants):
        assert got.tobytes() == want.as_flat().tobytes()


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
                                    budget=5000)
    assert sorted(results) == sorted(ks)
    for k, res in results.items():
        res.splits.validate_for(geom.node_count, k, perm)
        assert res.rate == rate_report(geom, PROP, power, res.splits, k, perm, mode).rate
    rates = [results[k].rate for k in sorted(ks)]
    assert all(a <= b + 1e-9 for a, b in zip(rates, rates[1:]))


@st.composite
def coherent_lp_searches(draw):
    """A non-uniform chain (T 6-12, spacings U(0.2, 3), 0.5-100 W per node)
    with a random relay order, a hop depth of 7 or more free coordinates,
    which a budget of 3000 gives no grid round, and a set of smaller ones to
    warm-start it from."""
    t_count = draw(st.integers(6, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacings = rng.uniform(0.2, 3.0, t_count - 1)
    perm = Permutation((1, *rng.permutation(range(2, t_count)).tolist(), t_count))
    free = {k: sum(m - 1 for m in row_lengths(t_count, k, perm).values())
            for k in range(2, t_count)}
    k = draw(st.sampled_from([k for k, ndim in free.items() if ndim >= 7]))
    smaller = draw(st.sets(st.integers(1, k - 1)))
    return spacings, draw(st.floats(0.5, 100.0)), perm, k, sorted(smaller)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(coherent_lp_searches())
def test_coherent_lp_steps_end_at_or_above_every_seed(case):
    # LP steps start from the best of own_only, the warm optima's embeddings
    # and the fading optimum, and keep a point only if it rates higher; the
    # result is a split on the simplices, rated by the reference path
    spacings, watts, perm, k, smaller = case
    geom = build_linear_geometry(spacings)
    t_count = geom.node_count
    power = PowerConfig.uniform(t_count, watts)
    warm = [optimize_splits(geom, PROP, power, j, perm, budget=3000) for j in smaller]
    with mock.patch.object(optimizer, "_rate_round", wraps=_rate_round) as rounds:
        res = optimize_splits(geom, PROP, power, k, perm, budget=3000, warm=warm)
    assert rounds.call_count == 0 and res.evaluations <= 3000 and res.dual is None
    fading = optimize_splits(geom, PROP, power, k, perm, CombiningMode.FADING)
    seeds = [SplitMatrix.own_only(t_count, k, perm), fading.splits] + [
        w.splits.embed(t_count, j, k, perm) for j, w in zip(smaller, warm)]
    for seed in seeds:
        assert res.rate >= rate_report(geom, PROP, power, seed, k, perm).rate - 1e-12
    for row in res.splits.rows:
        assert min(row) >= 0.0 and abs(math.fsum(row) - 1.0) <= 1e-12
    assert res.report == rate_report(geom, PROP, power, res.splits, k, perm)
    assert res.rate == res.report.rate


@pytest.mark.parametrize("node_count", [13, 16])
def test_fading_seed_lifts_coherent_lp_steps_past_the_corner_grid(node_count):
    # on these chains (non-uniform, seed 1) k = 2 has 11 and 14 free
    # coordinates: the grid rated box corners only, and LP steps from
    # own_only alone stall 0.06-0.08 bits below it; from the fading optimum
    # they end above it
    geom = build_linear_geometry(np.random.default_rng(1).uniform(0.2, 3.0, node_count - 1))
    power = PowerConfig.uniform(node_count, 10.0)
    res = optimize_splits(geom, PROP, power, 2)
    assert not res.incomplete
    assert res.rate > reference_optimize_splits(geom, PROP, power, 2).rate


def test_budget_exhaustion_is_flagged():
    # k = 5 has 10 free coordinates, too many for a grid of 12; what the
    # seeds leave of 12 cannot buy an LP step (23 evaluations)
    geom, power = unit_chain(6)
    res = optimize_splits(geom, PROP, power, 5, budget=12)
    assert res.incomplete and res.evaluations <= 12
    assert res.achieved_tolerance is None


def test_fading_mode_threads_through():
    geom, power = unit_chain(5)
    coh = optimize_splits(geom, PROP, power, 2, mode=CombiningMode.COHERENT)
    fad = optimize_splits(geom, PROP, power, 2, mode=CombiningMode.FADING)
    assert fad.rate <= coh.rate + 1e-9


@st.composite
def slabbed_searches(draw):
    """A non-uniform chain (T 4-8, spacings U(0.2, 3)) with a random relay
    order, a mode, a hop depth of 1-7 free coordinates, an evaluation budget
    from the least that gives a coherent search its grid (4 rounds of
    3**ndim points after the seed) up and a slab budget of 1-400 split
    fractions."""
    t_count = draw(st.integers(4, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacings = rng.uniform(0.2, 3.0, t_count - 1)
    perm = Permutation((1, *rng.permutation(range(2, t_count)).tolist(), t_count))
    free = {k: sum(m - 1 for m in row_lengths(t_count, k, perm).values())
            for k in range(2, t_count)}
    k = draw(st.sampled_from([k for k, ndim in free.items() if ndim <= 7]))
    budget = draw(st.integers(4 * 3 ** free[k] + 1, 4 * 3 ** free[k] + 2500))
    return (spacings, perm, draw(st.sampled_from(list(CombiningMode))), k, budget,
            draw(st.integers(1, 400)))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(slabbed_searches())
def test_slabs_change_no_search_result(search):
    # ragged, many-slab rounds give the one-slab search's point bit for bit
    spacings, perm, mode, k, budget, elements = search
    geom = build_linear_geometry(spacings)
    power = PowerConfig.uniform(geom.node_count, 10.0)
    with mock.patch.object(optimizer, "_SLAB_ELEMENTS", 1 << 62):
        want = optimize_splits(geom, PROP, power, k, perm, mode, budget)
    with mock.patch.object(optimizer, "_SLAB_ELEMENTS", elements):
        got = optimize_splits(geom, PROP, power, k, perm, mode, budget)
    assert_same_result(got, want)


@pytest.mark.parametrize("node_count,k,mode,builder", [
    (7, 2, CombiningMode.COHERENT, "_pair_features"),
    (7, 3, CombiningMode.FADING, "_pair_features"),
    (6, 4, CombiningMode.COHERENT, "_plan"),
])
def test_batch_plan_built_once_per_problem(monkeypatch, node_count, k, mode, builder):
    # compile_chain builds no plan; the first batch_min_rate call builds the
    # problem's, and later calls reuse it, as does a search: a slabbed grid
    # (coherent, 5 free coordinates), or LP steps' models and rated points
    # (fading, and coherent at 9 free coordinates)
    built = []
    original = getattr(kernel, builder)

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(kernel, builder, counted)
    rng = np.random.default_rng(k)
    geom = build_linear_geometry(rng.uniform(0.2, 3.0, node_count - 1))
    power = PowerConfig.uniform(node_count, 10.0)
    perm = Permutation((1, *rng.permutation(range(2, node_count)).tolist(), node_count))
    problem = compile_chain(geom, PROP, power, k, perm, mode)
    assert built == []
    lengths = tuple(row_lengths(node_count, k, perm)[t] for t in range(1, node_count))
    for n in (1, 40, 3):
        free = rng.random((n, sum(m - 1 for m in lengths)))
        batch_min_rate(problem, free_to_fractions(free, lengths))
    assert len(built) == 1
    built.clear()
    monkeypatch.setattr(optimizer, "_SLAB_ELEMENTS", 64)
    with mock.patch.object(optimizer, "batch_min_rate", wraps=batch_min_rate) as rated, \
            mock.patch.object(optimizer, "batch_powers", wraps=batch_powers) as powered, \
            mock.patch.object(optimizer, "_rate_round", wraps=_rate_round) as rounds:
        optimize_splits(geom, PROP, power, k, perm, mode, budget=2000)
    calls = rated.call_count + powered.call_count
    assert calls > (4 if rounds.call_count else 1) and len(built) == 1

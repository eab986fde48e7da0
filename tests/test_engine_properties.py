"""Property tests: the library's rate engine against the scalar reference
oracle in ``reference.py`` on random channels."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relayrates import (
    CombiningMode,
    NetworkGeometry,
    Permutation,
    PowerConfig,
    PropagationModel,
    SplitMatrix,
    batch_min_rate,
    build_linear_geometry,
    compile_chain,
    failure_impact,
    large_T_report,
    rate_report,
    reception_rate,
    row_lengths,
)

from relayrates import gaussian, kernel
from relayrates.gaussian import _convolve_runs, _lag_powers

from reference import reference_chain_csr, reference_lag_powers, reference_records

REL = 1e-12
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


def close(got, want):
    return abs(got - want) <= REL * abs(want)


@st.composite
def channels(draw, max_nodes=8):
    """A random non-linear channel, relay order, hop depth, mode, split matrix
    and failure set."""
    t_count = draw(st.integers(3, max_nodes))
    relays = draw(st.permutations(range(2, t_count)))
    k = draw(st.integers(1, t_count - 1))
    mode = draw(st.sampled_from(CombiningMode))
    failed = draw(st.sets(st.integers(2, t_count - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    d = rng.uniform(0.3, 3.0, size=(t_count, t_count))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    geom = NetworkGeometry(d)
    prop = PropagationModel(kappa=rng.uniform(0.5, 2.0), eta=rng.uniform(2.0, 4.0))
    power = PowerConfig(rng.uniform(0.1, 50.0, t_count - 1),
                        rng.uniform(0.1, 5.0, t_count - 1))
    perm = Permutation((1, *relays, t_count))
    lengths = row_lengths(t_count, k, perm)
    splits = SplitMatrix(tuple(
        tuple(rng.dirichlet(np.full(lengths[t], 0.5))) for t in range(1, t_count)
    ))
    return geom, prop, power, splits, k, perm, mode, frozenset(failed)


def assert_records_match(records, want):
    assert [r.node for r in records] == [w.node for w in want]
    for got, ref in zip(records, want):
        assert close(got.p_sig, ref.p_sig), (got, ref)
        assert close(got.p_int, ref.p_int), (got, ref)
        assert got.noise == ref.noise
        assert close(got.rate, ref.rate), (got, ref)


@PROPERTY
@given(channels())
def test_rate_report_matches_oracle(case):
    geom, prop, power, splits, k, perm, mode, _ = case
    report = rate_report(geom, prop, power, splits, k, perm, mode)
    want = reference_records(geom, prop, power, splits, k, perm, mode)
    assert_records_match(report.records, want)
    assert close(report.rate, min(w.rate for w in want))


@PROPERTY
@given(channels())
def test_failure_impact_matches_oracle(case):
    geom, prop, power, splits, k, perm, mode, failed = case
    report = failure_impact(geom, prop, power, splits, k, failed, perm, mode)
    want = reference_records(geom, prop, power, splits, k, perm, mode, failed)
    assert_records_match(report.records, want)


@PROPERTY
@given(channels(max_nodes=12))
def test_reception_rate_is_the_report_record(case):
    # one record per receiver: asked alone, a receiver gets the report's
    # record to the last bit, with or without failures
    geom, prop, power, splits, k, perm, mode, failed = case
    report = rate_report(geom, prop, power, splits, k, perm, mode, failed)
    for node in range(2, geom.node_count + 1):
        got = reception_rate(geom, prop, power, splits, k, perm, mode, node, failed)
        assert got == report.record(node)


@PROPERTY
@given(channels())
def test_compiled_kernel_matches_oracle(case):
    geom, prop, power, splits, k, perm, mode, _ = case
    problem = compile_chain(geom, prop, power, k, perm, mode)
    rate = batch_min_rate(problem, splits.as_flat()[None, :])[0]
    want = reference_records(geom, prop, power, splits, k, perm, mode)
    assert close(rate, min(w.rate for w in want))


@PROPERTY
@given(channels(max_nodes=60))
def test_chain_csr_matches_the_entry_mask(case):
    # the carrier template must give the 3-D mask's arrays to the bit, in
    # the same order and dtypes
    geom, prop, power, _, k, perm, mode, _ = case
    problem = compile_chain(geom, prop, power, k, perm, mode)
    got = (problem.grp_ptr, problem.ent_const, problem.ent_col)
    for a, b in zip(got, reference_chain_csr(geom, prop, power, k, perm)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@st.composite
def candidate_batches(draw):
    """A channel of up to 12 nodes from ``channels``, compiled, with a batch
    of random candidate splits."""
    geom, prop, power, _, k, perm, mode, _ = draw(channels(max_nodes=12))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = row_lengths(geom.node_count, k, perm)
    cands = np.concatenate([rng.dirichlet(np.full(lengths[t], 0.5), size=n)
                            for t in range(1, geom.node_count)], axis=1)
    return compile_chain(geom, prop, power, k, perm, mode), cands


# a mis-padded block changes a rate on only a few percent of shapes
@settings(PROPERTY, max_examples=150)
@given(candidate_batches(), st.booleans())
def test_batch_rates_are_bitwise_independent_of_block_budget(case, contract):
    # blocks of 1, 3, 7, 8 and 9 candidates put each candidate at other
    # places of other block widths; the rates must not move by a bit,
    # through the pair product or (with no room for pair weights) through
    # the contraction
    problem, cands = case
    with mock.patch.object(kernel, "_PAIR_ELEMENTS", 0 if contract else kernel._PAIR_ELEMENTS):
        want = batch_min_rate(problem, cands)
        per_candidate = problem.n_receivers ** 2
        for block in (1, 3, 7, 8, 9):
            with mock.patch.object(gaussian, "_BLOCK_ELEMENTS", block * per_candidate):
                assert gaussian._block_size(problem.n_receivers + 1, problem.n_receivers) == block
                assert np.array_equal(batch_min_rate(problem, cands), want), block


@PROPERTY
@given(channels(), st.floats(1e-3, 1e3))
def test_common_power_and_noise_scale_leaves_rates(case, scale):
    geom, prop, power, splits, k, perm, mode, failed = case
    scaled = PowerConfig(power.transmit_powers * scale, power.noise_powers * scale)
    base = failure_impact(geom, prop, power, splits, k, failed, perm, mode)
    after = failure_impact(geom, prop, scaled, splits, k, failed, perm, mode)
    for a, b in zip(after.records, base.records):
        assert abs(a.rate - b.rate) <= 1e-12 * max(b.rate, 1.0)


@PROPERTY
@given(channels(), st.floats(1e-3, 1e3))
def test_kappa_scale_equals_transmit_power_scale(case, scale):
    geom, prop, power, splits, k, perm, mode, _ = case
    louder = PropagationModel(prop.kappa * scale, prop.eta)
    stronger = PowerConfig(power.transmit_powers * scale, power.noise_powers)
    by_kappa = rate_report(geom, louder, power, splits, k, perm, mode)
    by_power = rate_report(geom, prop, stronger, splits, k, perm, mode)
    for a, b in zip(by_kappa.records, by_power.records):
        assert close(a.p_sig, b.p_sig) and close(a.p_int, b.p_int)
        assert abs(a.rate - b.rate) <= REL * max(b.rate, 1.0)

    rng = np.random.default_rng(k)
    lengths = row_lengths(geom.node_count, k, perm)
    cands = np.vstack([splits.as_flat()] + [
        np.concatenate([rng.dirichlet(np.ones(lengths[t]))
                        for t in range(1, geom.node_count)])
        for _ in range(20)
    ])
    got = batch_min_rate(compile_chain(geom, louder, power, k, perm, mode), cands)
    want = batch_min_rate(compile_chain(geom, prop, stronger, k, perm, mode), cands)
    assert np.all(np.abs(got - want) <= REL * np.maximum(want, 1.0))
    assert abs(got[0] - by_power.rate) <= REL * max(by_power.rate, 1.0)


def large_vs_oracle(t_count, alpha):
    rep = large_T_report(t_count, power=7.0, alpha=alpha)
    fwd = np.broadcast_to(alpha, (t_count - 2,))
    want = reference_records(build_linear_geometry([1.0] * (t_count - 1)),
                             PropagationModel(), PowerConfig.uniform(t_count, 7.0),
                             SplitMatrix.two_hop(fwd), 2)
    for got in (rep.p_sig, rep.p_int, rep.rates):
        assert np.all(got >= 0.0)
    for i, ref in enumerate(want):
        # close() at a zero reference demands an exact zero
        assert close(rep.p_sig[i], ref.p_sig), (t_count, ref)
        assert close(rep.p_int[i], ref.p_int), (t_count, ref)
        assert close(rep.rates[i], ref.rate), (t_count, ref)


@pytest.mark.parametrize("profile", ["random", "zero", "one", "scalar"])
def test_large_T_report_matches_oracle(profile):
    # small T leaves receivers an empty noise band and alpha = 1 leaves
    # receiver 2 no signal: both must come out as exact zeros
    for t_count in [*range(3, 31), 400]:
        alpha = {
            "random": np.random.default_rng(t_count).uniform(0.0, 1.0, t_count - 2),
            "zero": np.zeros(t_count - 2),
            "one": np.ones(t_count - 2),
            "scalar": 0.3,
        }[profile]
        large_vs_oracle(t_count, alpha)


def forward_profile(kind, size, rng):
    """Forward fractions of nodes 1..T-2 (``size`` of them)."""
    if kind == "random":
        return rng.uniform(0.0, 1.0, size)
    if kind == "two-level":
        return np.where(np.arange(size) < size // 2, 0.2, 0.8)
    if kind == "sparse-zero":
        return np.where(rng.uniform(size=size) < 0.7, 0.0, rng.uniform(0.0, 1.0, size))
    return np.full(size, {"zero": 0.0, "one": 1.0, "scalar": 0.37}[kind])


@pytest.mark.parametrize("profile", ["random", "zero", "one", "scalar",
                                     "two-level", "sparse-zero"])
@pytest.mark.parametrize("eta", [2.0, 3.5])
@pytest.mark.parametrize("t_count", [1000, 5000])
def test_lag_powers_match_direct_convolution(t_count, eta, profile):
    fwd = np.append(forward_profile(profile, t_count - 2, np.random.default_rng(t_count)), 0.0)
    frac = np.column_stack([1.0 - fwd, fwd])
    by_dist = np.zeros(t_count)
    by_dist[1:] = 7.0 * np.arange(1.0, t_count) ** -eta
    got, want = _lag_powers(by_dist, frac), reference_lag_powers(by_dist, frac)
    for g, w in zip(got, want):
        assert np.all(g >= 0.0)
        assert np.array_equal(g == 0.0, w == 0.0)
        assert np.all(np.abs(g - w) <= REL * w)


@st.composite
def run_inputs(draw):
    """An input made of runs of equal values, zero among them, and a
    non-negative kernel at least as long with a stretch of zeros."""
    values = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    runs = draw(st.lists(st.tuples(values, st.integers(1, 12)), min_size=1, max_size=5))
    y = np.concatenate([np.full(n, v) for v, n in runs])
    size = y.size + draw(st.integers(0, 30))
    kn = np.array(draw(st.lists(values, min_size=size, max_size=size)))
    lo = draw(st.integers(0, size))
    kn[lo:lo + draw(st.integers(0, size))] = 0.0
    return kn, y


@PROPERTY
@given(run_inputs())
@example((np.arange(1.0, 6.0), np.array([2.0])))                      # m = 1
@example((np.arange(1.0, 9.0), np.full(4, 0.5)))                      # all equal
@example((np.arange(1.0, 9.0), np.array([3.0, 3.0, 3.0, 1.0, 2.0])))  # run first
@example((np.arange(1.0, 9.0), np.array([1.0, 2.0, 3.0, 3.0, 3.0])))  # run last
@example((np.arange(1.0, 9.0), np.array([1.0, 0.0, 0.0, 0.0, 2.0])))  # zero run
def test_convolve_runs_matches_convolve(inputs):
    kn, y = inputs
    got, want = _convolve_runs(kn, y), np.convolve(kn, y, "valid")
    assert got.shape == want.shape
    assert np.all(got >= 0.0)
    assert np.array_equal(got == 0.0, want == 0.0)
    # a prefix-sum difference is exact to the rounding of the whole sum
    assert np.all(np.abs(got - want) <= REL * y.max() * kn.sum())

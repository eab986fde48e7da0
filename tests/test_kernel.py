import numpy as np
import pytest

from relayrates import (
    CombiningMode,
    Permutation,
    PowerConfig,
    PropagationModel,
    SplitMatrix,
    batch_min_rate,
    build_linear_geometry,
    compile_chain,
    rate_report,
)
from relayrates import gaussian, kernel
from relayrates.coding import row_lengths

from reference import reference_records


def make_problem(node_count, k, seed=0, mode=CombiningMode.COHERENT):
    rng = np.random.default_rng(seed)
    geom = build_linear_geometry(rng.uniform(0.5, 2.0, node_count - 1))
    power = PowerConfig(rng.uniform(0.5, 20.0, node_count - 1),
                        rng.uniform(0.5, 3.0, node_count - 1))
    perm = Permutation.identity(node_count)
    problem = compile_chain(geom, PropagationModel(), power, k, perm, mode)
    lengths = tuple(row_lengths(node_count, k, perm)[t] for t in range(1, node_count))
    return geom, power, perm, problem, lengths


def random_fractions(rng, lengths, n):
    cols = []
    for m in lengths:
        cols.append(rng.dirichlet(np.ones(m), size=n))
    return np.concatenate(cols, axis=1)


# (5, 4), (6, 5), (22, 21) and (44, 43) are omniscient; (20, 2) and (40, 2)
# are wide_chain shapes
@pytest.mark.parametrize("node_count,k", [(4, 1), (5, 2), (5, 4), (6, 5), (7, 3),
                                          (20, 2), (40, 2), (22, 21), (44, 43)])
@pytest.mark.parametrize("mode", [CombiningMode.COHERENT, CombiningMode.FADING])
def test_kernel_matches_reference_rates(node_count, k, mode):
    rng = np.random.default_rng(1)
    geom, power, perm, problem, lengths = make_problem(node_count, k, mode=mode)
    cands = random_fractions(rng, lengths, 20)
    rates = batch_min_rate(problem, cands)
    for i in range(cands.shape[0]):
        splits = SplitMatrix.from_flat(cands[i], lengths)
        want = rate_report(geom, PropagationModel(), power, splits, k, perm, mode).rate
        assert rates[i] == pytest.approx(want, rel=1e-12)


def test_batch_min_rate_matches_oracle_on_500_candidates():
    rng = np.random.default_rng(2)
    geom, power, perm, problem, lengths = make_problem(6, 3)
    cands = random_fractions(rng, lengths, 500)
    rates = batch_min_rate(problem, cands)
    for i in range(cands.shape[0]):
        splits = SplitMatrix.from_flat(cands[i], lengths)
        records = reference_records(geom, PropagationModel(), power, splits, 3, perm)
        assert rates[i] == pytest.approx(min(r.rate for r in records), rel=1e-12)


def test_shape_validation():
    _, _, _, problem, lengths = make_problem(5, 2)
    with pytest.raises(ValueError):
        batch_min_rate(problem, np.ones((3, sum(lengths) + 1)))


@pytest.mark.parametrize("spare", [-1, 0, 1])
@pytest.mark.parametrize("mode", [CombiningMode.COHERENT, CombiningMode.FADING])
def test_batch_at_candidate_block_boundary(monkeypatch, spare, mode):
    # a block holds 7 candidates; the batch has 6, 7 or 8
    node_count, k, block = 6, 3, 7
    geom, power, perm, problem, lengths = make_problem(node_count, k, seed=3, mode=mode)
    monkeypatch.setattr(gaussian, "_BLOCK_ELEMENTS", block * (node_count - 1) ** 2)
    assert gaussian._block_size(node_count, node_count - 1) == block
    cands = random_fractions(np.random.default_rng(4), lengths, block + spare)
    rates = batch_min_rate(problem, cands)
    for i in range(cands.shape[0]):
        splits = SplitMatrix.from_flat(cands[i], lengths)
        want = rate_report(geom, PropagationModel(), power, splits, k, perm, mode).rate
        assert rates[i] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("node_count,k", [(5, 2), (9, 3)])
def test_chain_problem_entries_carry_the_fading_powers(node_count, k):
    # under fading, every CSR entry is one gain * fraction term of a decoded
    # or interfering sub-signal, so all entries sum to sum(p_sig + p_int)
    rng = np.random.default_rng(5)
    relays = tuple(rng.permutation(range(2, node_count)))
    perm = Permutation((1, *relays, node_count))
    geom = build_linear_geometry(rng.uniform(0.5, 2.0, node_count - 1))
    power = PowerConfig(rng.uniform(0.5, 20.0, node_count - 1), np.ones(node_count - 1))
    problem = compile_chain(geom, PropagationModel(), power, k, perm,
                            CombiningMode.FADING)
    lengths = row_lengths(node_count, k, perm)
    splits = SplitMatrix(tuple(tuple(rng.dirichlet(np.ones(lengths[t])))
                               for t in range(1, node_count)))
    got = np.sum(problem.ent_const * splits.as_flat()[problem.ent_col])
    records = reference_records(geom, PropagationModel(), power, splits, k, perm,
                                CombiningMode.FADING)
    assert got == pytest.approx(sum(r.p_sig + r.p_int for r in records), rel=1e-12)
    assert problem.grp_ptr[-1] == problem.ent_col.size


@pytest.mark.parametrize("mode", [CombiningMode.COHERENT, CombiningMode.FADING])
def test_batch_is_independent_of_block_budget(monkeypatch, mode):
    # blocks of the default, 7 and 1 candidates (the last one partial but
    # at 1) give bitwise the same rates, which match the oracle
    node_count, k = 7, 3
    rng = np.random.default_rng(6)
    perm = Permutation((1, *rng.permutation(range(2, node_count)), node_count))
    geom = build_linear_geometry(rng.uniform(0.2, 3.0, node_count - 1))
    power = PowerConfig(rng.uniform(0.5, 20.0, node_count - 1),
                        rng.uniform(0.5, 3.0, node_count - 1))
    problem = compile_chain(geom, PropagationModel(), power, k, perm, mode)
    lengths = tuple(row_lengths(node_count, k, perm)[t] for t in range(1, node_count))
    default = gaussian._block_size(node_count, node_count - 1)
    assert (default + 4) % 7 != 0
    cands = np.asfortranarray(random_fractions(rng, lengths, default + 4))
    want = batch_min_rate(problem, cands)
    for i in [*range(0, default, 97), *range(default - 3, default + 4)]:
        splits = SplitMatrix.from_flat(cands[i], lengths)
        records = reference_records(geom, PropagationModel(), power, splits, k, perm, mode)
        assert want[i] == pytest.approx(min(r.rate for r in records), rel=1e-12)
    for block in (7, 1):
        monkeypatch.setattr(gaussian, "_BLOCK_ELEMENTS", block * (node_count - 1) ** 2)
        assert gaussian._block_size(node_count, node_count - 1) == block
        assert np.array_equal(batch_min_rate(problem, cands), want)


@pytest.mark.parametrize("node_count", range(3, 13))
@pytest.mark.parametrize("mode", [CombiningMode.COHERENT, CombiningMode.FADING])
def test_feature_count_matches_the_pair_features(node_count, mode):
    for k in range(1, node_count):
        problem = make_problem(node_count, k, mode=mode)[3]
        weights = kernel._pair_features(problem)[0]
        assert weights.shape == (2 * (node_count - 1),
                                 kernel._feature_count(node_count, k, mode is CombiningMode.COHERENT))


@pytest.mark.parametrize("mode", [CombiningMode.COHERENT, CombiningMode.FADING])
def test_wide_omniscient_batch_takes_the_contraction(monkeypatch, mode):
    # at k = T-1 the pair weights grow like T^4 coherent and T^3 under
    # fading; T = 70 rates through the contraction without building them,
    # matches rate_report, and gives bitwise the same rates at blocks of the
    # default, 1 and 3
    node_count, k = 70, 69
    geom, power, perm, problem, lengths = make_problem(node_count, k, seed=7, mode=mode)

    def no_pairs(problem):
        raise AssertionError("pair weights built")

    monkeypatch.setattr(kernel, "_pair_features", no_pairs)
    cands = random_fractions(np.random.default_rng(8), lengths, 5)
    want = batch_min_rate(problem, cands)
    for i in range(cands.shape[0]):
        splits = SplitMatrix.from_flat(cands[i], lengths)
        report = rate_report(geom, PropagationModel(), power, splits, k, perm, mode)
        assert want[i] == pytest.approx(report.rate, rel=1e-12)
    for block in (1, 3):
        monkeypatch.setattr(gaussian, "_BLOCK_ELEMENTS", block * (node_count - 1) ** 2)
        assert np.array_equal(batch_min_rate(problem, cands), want)

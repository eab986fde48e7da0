import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relayrates import (
    DmcChannel,
    JointPmf,
    NodeInput,
    Permutation,
    PmfValidationError,
    TableSizeError,
    build_joint,
    khop_dmc_rate,
    mutual_information,
    onehop_dmc_rate,
    row_lengths,
)

from reference import reference_joint


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def identity_map(width):
    # channel input equals the node's own fresh symbol, extra carried
    # coordinates are ignored
    return np.indices((2,) * width)[0]


def bsc_pair_channel(eps, delta):
    # three-node chain: Y2 is x1 through a BSC(eps), Y3 is x2 through a
    # BSC(delta), independently
    tab = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            for y2 in range(2):
                for y3 in range(2):
                    p2 = 1.0 - eps if y2 == x1 else eps
                    p3 = 1.0 - delta if y3 == x2 else delta
                    tab[x1, x2, y2, y3] = p2 * p3
    return DmcChannel((2, 2), (2, 2), tab)


def random_chain(rng, node_count):
    ins = (2,) * (node_count - 1)
    outs = (2,) * (node_count - 1)
    tab = rng.random(ins + outs)
    tab /= tab.reshape(int(np.prod(ins)), -1).sum(axis=1).reshape(ins + (1,) * len(outs))
    return DmcChannel(ins, outs, tab)


def test_joint_pmf_validation():
    with pytest.raises(PmfValidationError):
        JointPmf(("A",), np.array([[0.5, 0.5]]))  # label/axis mismatch
    with pytest.raises(PmfValidationError):
        JointPmf(("A", "A"), np.full((2, 2), 0.25))
    with pytest.raises(PmfValidationError):
        JointPmf(("A",), np.array([0.7, 0.4]))
    with pytest.raises(PmfValidationError):
        JointPmf(("A",), np.array([1.5, -0.5]))


def test_mutual_information_basics():
    # independent fair bits carry no information about each other
    indep = JointPmf(("A", "B"), np.full((2, 2), 0.25))
    assert mutual_information(indep, ["A"], ["B"]) == pytest.approx(0.0, abs=1e-15)
    # a perfect copy carries exactly one bit
    copy = JointPmf(("A", "B"), np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert mutual_information(copy, ["A"], ["B"]) == pytest.approx(1.0, abs=1e-12)


def test_conditional_mutual_information_xor():
    # C = A xor B with fair independent bits: I(A;B) = 0 but I(A;B|C) = 1
    tab = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            tab[a, b, a ^ b] = 0.25
    joint = JointPmf(("A", "B", "C"), tab)
    assert mutual_information(joint, ["A"], ["B"]) == pytest.approx(0.0, abs=1e-12)
    assert mutual_information(joint, ["A"], ["B"], ["C"]) == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_argument_checks():
    joint = JointPmf(("A", "B"), np.full((2, 2), 0.25))
    with pytest.raises(PmfValidationError):
        mutual_information(joint, [], ["B"])
    with pytest.raises(PmfValidationError):
        mutual_information(joint, ["A"], ["A"])
    with pytest.raises(PmfValidationError):
        mutual_information(joint, ["A"], ["Z"])


def test_channel_validation():
    with pytest.raises(PmfValidationError):
        DmcChannel((2,), (2,), np.eye(2))  # fewer than two inputs
    with pytest.raises(PmfValidationError):
        DmcChannel((2, 2), (2, 2), np.zeros((2, 2, 2)))  # wrong shape
    bad = np.full((2, 2, 2, 2), 0.3)
    with pytest.raises(PmfValidationError):
        DmcChannel((2, 2), (2, 2), bad)  # slices do not sum to 1


@pytest.mark.parametrize("bad", [2.5, 0, -1, True, "2"])
@pytest.mark.parametrize("side", ["input", "output"])
def test_channel_refuses_alphabet_sizes_that_are_not_positive_integers(side, bad):
    # 2.5 used to build a binary channel and 0 to fail inside numpy's reshape
    ins, outs = ((bad, 2), (2, 2)) if side == "input" else ((2, 2), (2, bad))
    with pytest.raises(PmfValidationError,
                       match=f"{side} alphabet size must be a positive integer, got {bad!r}"):
        DmcChannel(ins, outs, np.full((2, 2, 2, 2), 0.25))


def test_channel_accepts_whole_float_alphabet_sizes():
    chan = DmcChannel((2.0, 2), (2, 2.0), np.full((2, 2, 2, 2), 0.25))
    assert chan.input_sizes == chan.output_sizes == (2, 2)


def test_node_input_validation():
    with pytest.raises(PmfValidationError):
        NodeInput(np.array([0.7, 0.4]), np.arange(2))
    with pytest.raises(PmfValidationError):
        NodeInput(np.array([[0.5, 0.5]]), np.arange(2))


def test_noiseless_chain_achieves_one_bit():
    chan = bsc_pair_channel(0.0, 0.0)
    uniform = np.array([0.5, 0.5])
    one_hop = onehop_dmc_rate(
        chan, [NodeInput(uniform, identity_map(1)), NodeInput(uniform, identity_map(1))]
    )
    two_hop = khop_dmc_rate(
        chan, [NodeInput(uniform, identity_map(2)), NodeInput(uniform, identity_map(1))], 2
    )
    assert one_hop.rate == pytest.approx(1.0, abs=1e-12)
    assert two_hop.rate == pytest.approx(1.0, abs=1e-12)


def test_bsc_rates_match_closed_form():
    eps, delta = 0.11, 0.2
    chan = bsc_pair_channel(eps, delta)
    uniform = np.array([0.5, 0.5])
    rep = onehop_dmc_rate(
        chan, [NodeInput(uniform, identity_map(1)), NodeInput(uniform, identity_map(1))]
    )
    assert rep.rates[2] == pytest.approx(1.0 - h2(eps), rel=1e-12)
    assert rep.rates[3] == pytest.approx(1.0 - h2(delta), rel=1e-12)
    assert rep.bottleneck == 3
    assert rep.rate == rep.rates[3]


def test_onehop_equals_khop_with_k1():
    rng = np.random.default_rng(2)
    chan = random_chain(rng, 4)
    uniform = np.array([0.5, 0.5])
    inputs = [NodeInput(uniform, identity_map(1)) for _ in range(3)]
    a = onehop_dmc_rate(chan, inputs)
    b = khop_dmc_rate(chan, inputs, 1)
    assert a == b


def test_wider_decode_window_never_hurts():
    rng = np.random.default_rng(4)
    uniform = np.array([0.5, 0.5])
    for _ in range(30):
        chan = random_chain(rng, 4)
        prev = -1.0
        for k in (1, 2, 3):
            widths = [min(k, 3 - p + 1) for p in (1, 2, 3)]
            inputs = [NodeInput(uniform, identity_map(w)) for w in widths]
            rate = khop_dmc_rate(chan, inputs, k).rate
            assert rate >= prev - 1e-12
            prev = rate


def test_rates_are_never_negative():
    # every output ignores every input, so each I(A;B|C) is 0; as a
    # difference of entropies its summed terms round to either side of it
    rng = np.random.default_rng(5)
    for _ in range(8):
        p_y = rng.random((3,) * 5)
        table = np.broadcast_to(p_y / p_y.sum(), (3,) * 10)
        chan = DmcChannel((3,) * 5, (3,) * 5, table)
        inputs = [NodeInput(rng.dirichlet(np.ones(3)), np.arange(3)) for _ in range(5)]
        rep = khop_dmc_rate(chan, inputs, 1)
        assert all(0.0 <= r < 1e-12 for r in rep.rates.values())


def test_xmap_shape_and_alphabet_checks():
    chan = bsc_pair_channel(0.1, 0.1)
    uniform = np.array([0.5, 0.5])
    with pytest.raises(PmfValidationError):
        # node 1 carries two sub-signals under k=2 but the map is 1-D
        khop_dmc_rate(
            chan, [NodeInput(uniform, identity_map(1)), NodeInput(uniform, identity_map(1))], 2
        )
    with pytest.raises(PmfValidationError):
        # map emits symbol 2 but the input alphabet is binary
        onehop_dmc_rate(
            chan, [NodeInput(uniform, np.array([0, 2])), NodeInput(uniform, identity_map(1))]
        )
    with pytest.raises(PmfValidationError):
        onehop_dmc_rate(chan, [NodeInput(uniform, identity_map(1))])


def test_table_cap_is_enforced():
    chan = bsc_pair_channel(0.1, 0.1)
    uniform = np.array([0.5, 0.5])
    inputs = [NodeInput(uniform, identity_map(1)), NodeInput(uniform, identity_map(1))]
    with pytest.raises(TableSizeError):
        build_joint(chan, inputs, 1, table_cap=8)
    # the receivers' tables: 4 sub-signal outcomes times |Y2| + |Y3| = 4
    khop_dmc_rate(chan, inputs, 1, table_cap=16)
    with pytest.raises(TableSizeError, match="16 entries"):
        khop_dmc_rate(chan, inputs, 1, table_cap=15)


def test_constructors_reject_nan():
    uniform = np.array([0.5, 0.5])
    with pytest.raises(PmfValidationError):
        JointPmf(("A",), np.array([0.5, math.nan]))
    tab = bsc_pair_channel(0.1, 0.1).table.copy()
    tab[0, 0, 0, 0] = math.nan
    with pytest.raises(PmfValidationError):
        DmcChannel((2, 2), (2, 2), tab)
    with pytest.raises(PmfValidationError):
        NodeInput(np.array([0.5, math.nan]), np.arange(2))
    with pytest.raises(PmfValidationError):
        NodeInput(uniform, np.array([0.0, math.nan]))


@pytest.mark.parametrize("x_map", [[0, -1], [0.0, 1.7], [0.0, math.inf], ["0", "1"]])
def test_node_input_rejects_symbols_that_are_not_indices(x_map):
    with pytest.raises(PmfValidationError):
        NodeInput(np.array([0.5, 0.5]), np.array(x_map))


def test_node_input_accepts_integral_float_symbols():
    inp = NodeInput(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert inp.x_map.dtype.kind == "i"
    assert inp.x_map.tolist() == [1, 0]


@st.composite
def dmcs(draw):
    """A random channel over alphabets of 1-3 symbols, a relay order, a hop
    depth and node inputs, some with zero-probability sub-symbols."""
    t_count = draw(st.integers(3, 6))
    perm = Permutation((1, *draw(st.permutations(range(2, t_count))), t_count))
    k = draw(st.integers(1, t_count - 1))
    sizes = st.lists(st.integers(1, 3), min_size=t_count - 1, max_size=t_count - 1)
    x_sizes, y_sizes, u_sizes = (tuple(draw(sizes)) for _ in range(3))
    sparse_pmfs = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    table = rng.random(x_sizes + y_sizes)
    table /= table.reshape(x_sizes + (-1,)).sum(axis=-1).reshape(
        x_sizes + (1,) * len(y_sizes))
    lengths = row_lengths(t_count, k, perm)
    inputs = []
    for node in range(1, t_count):
        pmf = rng.dirichlet(np.ones(u_sizes[node - 1]))
        if sparse_pmfs:
            pmf[rng.random(pmf.size) < 0.5] = 0.0
            pmf[rng.integers(pmf.size)] += 0.25
            pmf /= pmf.sum()
        pos = perm.position_of(node)
        carried = [u_sizes[perm.node_at(pos + j) - 1] for j in range(lengths[node])]
        inputs.append(NodeInput(pmf, rng.integers(0, x_sizes[node - 1], carried)))
    return DmcChannel(x_sizes, y_sizes, table), inputs, k, perm


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(dmcs())
def test_joint_matches_the_outcome_loop(case):
    channel, inputs, k, perm = case
    joint = build_joint(channel, inputs, k, perm)
    t_count = channel.node_count
    assert joint.labels == tuple(f"U{n}" for n in range(1, t_count)) + tuple(
        f"Y{n}" for n in range(2, t_count + 1))
    assert np.array_equal(joint.table, reference_joint(channel, inputs, k, perm))



@pytest.mark.parametrize("make,build,held", [
    (lambda: np.full((2, 2), 0.25), lambda a: JointPmf(("A", "B"), a),
     lambda obj: obj.table),
    (lambda: np.full((2, 2, 2, 2), 0.25), lambda a: DmcChannel((2, 2), (2, 2), a),
     lambda obj: obj.table),
    (lambda: np.array([0.25, 0.75]), lambda a: NodeInput(a, [0, 1]),
     lambda obj: obj.u_pmf),
], ids=["joint", "channel", "node_input"])
def test_value_types_leave_the_callers_array_writeable(make, build, held):
    mine = make()
    obj = build(mine)
    kept = held(obj).copy()
    mine[...] = 7.0             # raises if the object froze the caller's array
    assert np.array_equal(held(obj), kept)
    assert not held(obj).flags.writeable


def inputs_at(rng, pmfs, x_sizes, perm, ks):
    """Node inputs with the given pmfs and random maps onto the channel
    inputs, one list per hop depth in ``ks``."""
    t_count = perm.node_count
    inputs = {}
    for k in ks:
        lengths = row_lengths(t_count, k, perm)
        inputs[k] = []
        for node in range(1, t_count):
            pos = perm.position_of(node)
            carried = [pmfs[perm.node_at(pos + j) - 1].size for j in range(lengths[node])]
            inputs[k].append(NodeInput(pmfs[node - 1],
                                       rng.integers(0, x_sizes[node - 1], carried)))
    return inputs


def example_case(x_sizes, y_sizes, pmfs, order, ks=None):
    """A channel of the given alphabets with a seeded conditional table, and
    node inputs for the hop depths ``ks`` (every k by default)."""
    rng = np.random.default_rng(len(order))
    table = rng.random(x_sizes + y_sizes)
    table /= table.reshape(x_sizes + (-1,)).sum(axis=-1).reshape(
        x_sizes + (1,) * len(y_sizes))
    perm = Permutation(order)
    pmfs = [np.array(pmf) for pmf in pmfs]
    return (DmcChannel(x_sizes, y_sizes, table),
            inputs_at(rng, pmfs, x_sizes, perm, ks or range(1, len(order))), perm)


@st.composite
def channels_at_every_k(draw):
    """A random channel at T 3-6 over alphabets of 2-3 symbols whose
    conditional table has zero entries, a random relay order, and node
    inputs for every hop depth 1..T-1, some pmfs with zeros too."""
    t_count = draw(st.integers(3, 6))
    perm = Permutation((1, *draw(st.permutations(range(2, t_count))), t_count))
    sizes = st.lists(st.integers(2, 3), min_size=t_count - 1, max_size=t_count - 1)
    x_sizes, y_sizes, u_sizes = (tuple(draw(sizes)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    table = rng.random(x_sizes + y_sizes) * (rng.random(x_sizes + y_sizes) < 0.6)
    flat = table.reshape(x_sizes + (-1,))
    # every conditional slice keeps some mass
    np.put_along_axis(flat, rng.integers(0, flat.shape[-1], x_sizes + (1,)), 1.0, axis=-1)
    table /= flat.sum(axis=-1).reshape(x_sizes + (1,) * len(y_sizes))
    pmfs = []
    for size in u_sizes:
        pmf = rng.dirichlet(np.ones(size)) * (rng.random(size) < 0.7)
        pmf[rng.integers(size)] += 0.5
        pmfs.append(pmf / pmf.sum())
    return (DmcChannel(x_sizes, y_sizes, table),
            inputs_at(rng, pmfs, x_sizes, perm, range(1, t_count)), perm)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(channels_at_every_k())
# a deterministic decoded sub-signal (H(U) = 0), a receiver with |Y_r| = 1,
# and k = T-1 alone at T = 6 on a shuffled relay order
@example(example_case((2, 3, 2), (2, 2, 3), ([0.4, 0.6], [0.0, 1.0, 0.0], [0.5, 0.5]),
                      (1, 2, 3, 4)))
@example(example_case((2, 2, 3), (3, 1, 2), ([0.3, 0.7], [0.5, 0.5], [0.2, 0.3, 0.5]),
                      (1, 3, 2, 4)))
@example(example_case((2, 3, 2, 2, 3), (2, 3, 2, 3, 2),
                      ([0.5, 0.5], [0.2, 0.3, 0.5], [0.9, 0.1], [0.5, 0.5], [0.1, 0.6, 0.3]),
                      (1, 4, 2, 5, 3, 6), ks=[5]))
def test_receiver_tables_match_the_full_joint(case):
    # each receiver's rate from its two tables equals I(decoded; Y_r | known)
    # in ratio form on the full joint: the receiver at position p decodes the
    # sub-signals at positions p-k..p-1 and knows those at p..p+k-1
    channel, inputs, perm = case
    t_count = channel.node_count
    for k, node_inputs in inputs.items():
        rep = khop_dmc_rate(channel, node_inputs, k, perm)
        joint = build_joint(channel, node_inputs, k, perm)
        assert sorted(rep.rates) == list(range(2, t_count + 1))
        for receiver, rate in rep.rates.items():
            pos = perm.position_of(receiver)
            decode = [f"U{perm.node_at(q)}" for q in range(pos - k, pos) if q >= 1]
            known = [f"U{perm.node_at(q)}" for q in range(pos, pos + k) if q <= t_count - 1]
            want = mutual_information(joint, decode, [f"Y{receiver}"], known)
            assert abs(rate - want) <= 1e-12, (k, receiver, rate, want)
        assert rep.rate == min(rep.rates.values()) == rep.rates[rep.bottleneck]


def test_output_marginals_sum_out_the_other_outputs():
    rng = np.random.default_rng(6)
    ins, outs = (2, 3, 2), (3, 2, 2)
    table = rng.random(ins + outs)
    table /= table.reshape(12, -1).sum(axis=1).reshape(ins + (1, 1, 1))
    chan = DmcChannel(ins, outs, table)
    marginals = chan._output_marginals
    assert marginals.shape == (12, 7) and not marginals.flags.writeable
    assert chan._output_marginals is marginals
    at = 0
    for r, size in enumerate(outs):
        others = tuple(3 + s for s in range(3) if s != r)
        want = table.sum(axis=others).reshape(12, size)
        assert np.abs(marginals[:, at:at + size] - want).max() <= 1e-15
        at += size

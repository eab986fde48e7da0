import math
import re

import numpy as np
import pytest

from relayrates import (
    ChannelValidationError,
    CombiningMode,
    DmcChannel,
    NodeInput,
    Permutation,
    PowerConfig,
    PropagationModel,
    SplitMatrix,
    SplitValidationError,
    build_linear_geometry,
    carrier_layout,
    compile_chain,
    failure_impact,
    khop_dmc_rate,
    large_T_report,
    optimize_rates_over_k,
    optimize_splits,
    rate_report,
    reception_rate,
    row_lengths,
)


def test_permutation_fixes_endpoints():
    perm = Permutation((1, 3, 2, 4))
    assert perm.node_at(2) == 3
    assert perm.position_of(2) == 3
    with pytest.raises(SplitValidationError):
        Permutation((2, 1, 3, 4))
    with pytest.raises(SplitValidationError):
        Permutation((1, 2, 2, 4))


def test_row_lengths_shrink_near_destination():
    perm = Permutation.identity(5)
    assert row_lengths(5, 2, perm) == {1: 2, 2: 2, 3: 2, 4: 1}
    assert row_lengths(5, 4, perm) == {1: 4, 2: 3, 3: 2, 4: 1}
    assert row_lengths(5, 1, perm) == {1: 1, 2: 1, 3: 1, 4: 1}
    with pytest.raises(SplitValidationError):
        row_lengths(5, 5, perm)
    with pytest.raises(SplitValidationError):
        row_lengths(5, 0, perm)


def test_carrier_layout_two_hop():
    layout = carrier_layout(5, 2, Permutation.identity(5))
    # each sub-signal is carried by its own node and the one behind it
    assert layout == {1: [1], 2: [1, 2], 3: [2, 3], 4: [3, 4]}


def test_carrier_layout_omniscient():
    layout = carrier_layout(5, 4, Permutation.identity(5))
    assert layout == {1: [1], 2: [1, 2], 3: [1, 2, 3], 4: [1, 2, 3, 4]}


def test_carrier_layout_respects_permutation():
    perm = Permutation((1, 3, 2, 4))
    layout = carrier_layout(4, 2, perm)
    # relay order 1,3,2,4: node 2's sub-signal is forwarded by node 3
    assert layout == {1: [1], 3: [1, 3], 2: [2, 3]}


def test_split_rows_must_sum_to_one():
    with pytest.raises(SplitValidationError):
        SplitMatrix(((0.5, 0.4), (1.0,)))
    with pytest.raises(SplitValidationError):
        SplitMatrix(((1.5, -0.5), (1.0,)))
    sm = SplitMatrix(((0.25, 0.75), (1.0,)))
    assert sm.rows[0] == (0.25, 0.75)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_split_rows_reject_non_finite_fractions(bad):
    # NaN passes both v < 0 and |sum - 1| > tol, so it needs its own check
    with pytest.raises(SplitValidationError, match="row 1 has a non-finite fraction"):
        SplitMatrix(((bad, 1.0), (1.0,)))


@pytest.mark.parametrize("call", [
    lambda perm: row_lengths(5, 2, perm),
    lambda perm: carrier_layout(5, 2, perm),
    lambda perm: SplitMatrix.own_only(5, 2, perm),
    lambda perm: SplitMatrix.uniform(5, 2, perm),
    lambda perm: SplitMatrix.own_only(5, 1).embed(5, 1, 2, perm),
], ids=["row_lengths", "carrier_layout", "own_only", "uniform", "embed"])
@pytest.mark.parametrize("nodes", [3, 6], ids=["short", "long"])
def test_helpers_reject_a_permutation_for_another_node_count(call, nodes):
    with pytest.raises(SplitValidationError,
                       match=f"the permutation is for {nodes} nodes, not 5"):
        call(Permutation.identity(nodes))


def test_split_constructors():
    own = SplitMatrix.own_only(5, 3)
    assert own.rows == ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0), (1.0,))
    uni = SplitMatrix.uniform(4, 2)
    assert uni.rows == ((0.5, 0.5), (0.5, 0.5), (1.0,))
    two = SplitMatrix.two_hop([0.3, 0.6])
    assert two.rows == ((0.7, 0.3), (0.4, 0.6), (1.0,))
    with pytest.raises(SplitValidationError):
        SplitMatrix.two_hop([1.2])


def test_flat_round_trip():
    sm = SplitMatrix(((0.2, 0.3, 0.5), (0.9, 0.1), (1.0,)))
    flat = sm.as_flat()
    back = SplitMatrix.from_flat(flat, (3, 2, 1))
    assert back == sm


def test_embed_pads_with_zero_forward_mass():
    sm = SplitMatrix.two_hop([0.3, 0.4, 0.5])
    wide = sm.embed(5, 2, 4)
    wide.validate_for(5, 4, Permutation.identity(5))
    assert wide.rows[0] == (0.7, 0.3, 0.0, 0.0)
    assert wide.rows[3] == (1.0,)
    with pytest.raises(SplitValidationError):
        wide.embed(5, 4, 2)


def test_validate_for_checks_row_shapes():
    sm = SplitMatrix.own_only(5, 2)
    sm.validate_for(5, 2, Permutation.identity(5))
    with pytest.raises(SplitValidationError):
        sm.validate_for(5, 3, Permutation.identity(5))


def _chain():
    return (build_linear_geometry([1.0] * 5), PropagationModel(1.0, 2.0),
            PowerConfig.uniform(6, 10.0))


def _dmc_rate(k):
    chan = DmcChannel((2,) * 5, (2,) * 5, np.full((2,) * 10, 1.0 / 32))
    return khop_dmc_rate(chan, [NodeInput([0.5, 0.5], [0, 1]) for _ in range(5)], k)


HOP_DEPTH_ENTRY_POINTS = {
    "row_lengths": lambda k: row_lengths(6, k, Permutation.identity(6)),
    "carrier_layout": lambda k: carrier_layout(6, k, Permutation.identity(6)),
    "uniform": lambda k: SplitMatrix.uniform(6, k),
    "rate_report": lambda k: rate_report(*_chain(), SplitMatrix.uniform(6, 2), k),
    "compile_chain": lambda k: compile_chain(*_chain(), k, Permutation.identity(6),
                                             CombiningMode.COHERENT),
    "optimize_splits": lambda k: optimize_splits(*_chain(), k),
    "optimize_rates_over_k": lambda k: optimize_rates_over_k(*_chain(), [k]),
    "khop_dmc_rate": _dmc_rate,
}


@pytest.mark.parametrize("k", [1.5, 2.0, 2.5, True, "2", None])
@pytest.mark.parametrize("entry", list(HOP_DEPTH_ENTRY_POINTS))
def test_a_hop_depth_that_is_not_an_integer_is_refused(entry, k):
    # checked before anything is indexed: rows of 1.5 entries, numpy's
    # "expected a sequence of integers" and bare IndexErrors were the symptoms
    with pytest.raises(SplitValidationError, match=f"k must be an integer, got {k!r}"):
        HOP_DEPTH_ENTRY_POINTS[entry](k)


TWO_HOP = SplitMatrix.two_hop([0.5] * 4)

# entry points that take a node id or a node count, and the error each raises
NODE_ID_ENTRY_POINTS = {
    "permutation": (SplitValidationError, lambda v: Permutation((1, v, 3, 4))),
    "rate_report": (ChannelValidationError,
                    lambda v: rate_report(*_chain(), TWO_HOP, 2, failed=frozenset({v}))),
    "failure_impact": (ChannelValidationError,
                       lambda v: failure_impact(*_chain(), TWO_HOP, 2, {v})),
    "reception_rate": (ChannelValidationError,
                       lambda v: reception_rate(*_chain(), TWO_HOP, 2, receiver=v)),
    "large_T_report": (ValueError, large_T_report),
    "uniform_power": (ChannelValidationError, lambda v: PowerConfig.uniform(v, 10.0)),
}


@pytest.mark.parametrize("entry,value", [
    ("permutation", 2.5), ("permutation", True), ("permutation", "2"),
    ("rate_report", 2.5), ("rate_report", True), ("rate_report", "3"),
    ("failure_impact", 2.5), ("failure_impact", True), ("failure_impact", "3"),
    ("reception_rate", 2.5), ("reception_rate", True), ("reception_rate", "3"),
    ("large_T_report", True), ("large_T_report", "10"),
    ("uniform_power", 5.5), ("uniform_power", True), ("uniform_power", "6"),
])
def test_a_node_id_that_is_not_a_whole_number_is_refused(entry, value):
    # truncated, parsed from a string or read as 1, each would run as another
    # node; the error names the value
    error, call = NODE_ID_ENTRY_POINTS[entry]
    with pytest.raises(error, match=re.escape(repr(value))):
        call(value)


@pytest.mark.parametrize("node", [3, 3.0, np.int64(3), np.float32(3.0)])
def test_a_whole_node_id_of_any_numeric_type_reads_as_an_int(node):
    order = Permutation((1, node, 2, 4)).order
    assert order == (1, 3, 2, 4) and type(order[1]) is int
    assert failure_impact(*_chain(), TWO_HOP, 2, {node}) == \
        failure_impact(*_chain(), TWO_HOP, 2, {3})
    assert reception_rate(*_chain(), TWO_HOP, 2, receiver=node) == \
        reception_rate(*_chain(), TWO_HOP, 2, receiver=3)
    assert np.array_equal(large_T_report(node + 7).rates, large_T_report(10).rates)
    assert PowerConfig.uniform(node + 3, 10.0) == PowerConfig.uniform(6, 10.0)
    assert Permutation(iter((1, node, 2, 4))).order == (1, 3, 2, 4)

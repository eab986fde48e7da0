import math

import numpy as np
import pytest

from relayrates import Permutation, SplitMatrix, SplitValidationError, carrier_layout, row_lengths


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
    assert sm.row(1) == (0.25, 0.75)


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

"""Reduction-operator semantics, including the property-based checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.reduction import (
    BAND,
    BOR,
    LAND,
    LOR,
    MAX,
    MAXLOC,
    MIN,
    MINLOC,
    PROD,
    SUM,
    ReduceOp,
    lookup,
    make_op,
)


def test_sum_reduce_and_identity():
    parts = [np.array([1, 2]), np.array([3, 4]), np.array([5, 6])]
    np.testing.assert_array_equal(SUM.reduce(parts), [9, 12])
    np.testing.assert_array_equal(SUM.identity_like(parts[0]), [0, 0])


def test_prod_min_max():
    parts = [np.array([2.0, -1.0]), np.array([3.0, 4.0])]
    np.testing.assert_array_equal(PROD.reduce(parts), [6.0, -4.0])
    np.testing.assert_array_equal(MIN.reduce(parts), [2.0, -1.0])
    np.testing.assert_array_equal(MAX.reduce(parts), [3.0, 4.0])


def test_logical_and_bitwise():
    parts = [np.array([True, True, False]), np.array([True, False, False])]
    np.testing.assert_array_equal(LAND.reduce(parts), [True, False, False])
    np.testing.assert_array_equal(LOR.reduce(parts), [True, True, False])
    ints = [np.array([0b1100]), np.array([0b1010])]
    np.testing.assert_array_equal(BAND.reduce(ints), [0b1000])
    np.testing.assert_array_equal(BOR.reduce(ints), [0b1110])


def test_minloc_prefers_lower_value_then_lower_index():
    a = np.array([[3.0, 0.0], [1.0, 0.0]])
    b = np.array([[2.0, 1.0], [1.0, 1.0]])
    out = MINLOC.reduce([a, b])
    np.testing.assert_array_equal(out, [[2.0, 1.0], [1.0, 0.0]])


def test_maxloc_prefers_higher_value_then_lower_index():
    a = np.array([[3.0, 0.0], [1.0, 0.0]])
    b = np.array([[4.0, 1.0], [1.0, 1.0]])
    out = MAXLOC.reduce([a, b])
    np.testing.assert_array_equal(out, [[4.0, 1.0], [1.0, 0.0]])


def test_exscan_shapes_and_identity_first():
    parts = [np.array([i, i * 2]) for i in range(1, 5)]
    out = SUM.exscan(parts)
    np.testing.assert_array_equal(out[0], [0, 0])
    np.testing.assert_array_equal(out[3], [6, 12])


def test_exscan_without_identity_raises():
    with pytest.raises(ValueError):
        MIN.exscan([np.array([1])])


def test_reduce_empty_contributions_raises():
    with pytest.raises(ValueError):
        SUM.reduce([])


def test_make_op_custom():
    concat_len = make_op("len_sum", lambda a, b: a + b,
                         lambda t: np.zeros_like(t))
    assert concat_len.name == "len_sum"
    np.testing.assert_array_equal(
        concat_len.reduce([np.array([1]), np.array([2])]), [3]
    )


def test_a_name_denotes_one_operator():
    """Operators are resolved by name (order check, fusion grouping, the
    router's ``finish``), so a second, different one under a taken name
    is refused — it used to be silently fused under the first's function."""
    first = make_op("one_name", np.maximum)
    assert lookup("one_name") is first
    assert make_op("one_name", np.maximum) == first         # identical: no-op
    assert lookup("one_name") is first
    with pytest.raises(ValueError, match="'one_name' already exists"):
        make_op("one_name", np.minimum)
    with pytest.raises(ValueError, match="'sum' already exists"):
        ReduceOp("sum", np.add)
    assert lookup("sum") is SUM


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.lists(st.integers(-1000, 1000), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    )
)
def test_sum_exscan_property(rows):
    """exscan[r] == the partial sum of contributions[0..r-1]; rank 0 gets
    the identity."""
    parts = [np.array(r, dtype=np.int64) for r in rows]
    exc = SUM.exscan(parts)
    assert len(exc) == len(parts)
    for r in range(len(parts)):
        np.testing.assert_array_equal(
            exc[r], sum(parts[:r], np.zeros(3, dtype=np.int64)))


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.integers(0, 100)),
        min_size=1,
        max_size=8,
    )
)
def test_minloc_matches_python_min(pairs):
    parts = [np.array([[v, float(i)]]) for v, i in pairs]
    out = MINLOC.reduce(parts)
    expected = min(pairs, key=lambda t: (t[0], t[1]))
    assert out[0, 0] == expected[0]
    assert out[0, 1] == float(expected[1])

"""The (value, rid) sort keys are exact: permutations equal numpy's.

``stable_argsort`` must return what ``np.argsort(kind="stable")``
returns, and ``lexsort_values_rids`` what ``np.lexsort((rids, values))``
returns, element for element — not merely *a* sorted order, since a
wrong tie order inside a run of equal values (±0.0, NaN, a repeated
value) still reads as sorted values.  Columns are drawn in four dtypes,
all-equal or tie-heavy or spread, with ±inf, mixed signed zeros and
several NaNs among the floats (``lexsort_values_rids`` is public and the
sample sort is a harness seam, even though training refuses NaN).  Rids
come ascending (every local Presort sort), permuted, or as concatenated
(value, rid)-sorted runs in rid-block order (the merge after the
exchange).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sort import lexsort_values_rids
from repro.sort.keys import stable_argsort

DTYPES = [np.float64, np.float32, np.int64, np.uint8]
FLOAT_SPECIALS = [np.inf, -np.inf, 0.0, -0.0, np.nan]


def _elements(dtype) -> st.SearchStrategy:
    if np.dtype(dtype).kind == "f":
        width = 8 * np.dtype(dtype).itemsize
        return st.one_of(st.sampled_from(FLOAT_SPECIALS),
                         st.floats(width=width, allow_nan=True))
    info = np.iinfo(dtype)
    return st.integers(int(info.min), int(info.max))


@st.composite
def columns(draw) -> np.ndarray:
    """A column of 0–200 values: all equal, a few distinct values (heavy
    ties), or drawn freely."""
    dtype = draw(st.sampled_from(DTYPES))
    n = draw(st.integers(0, 200))
    distinct = draw(st.sampled_from([1, 2, 4, None]))
    if distinct is None:
        raw = draw(st.lists(_elements(dtype), min_size=n, max_size=n))
    else:
        pool = draw(st.lists(_elements(dtype), min_size=distinct,
                             max_size=distinct))
        picks = draw(st.lists(st.integers(0, distinct - 1),
                              min_size=n, max_size=n))
        raw = [pool[i] for i in picks]
    return np.array(raw, dtype=dtype)


@st.composite
def keyed_columns(draw) -> tuple[np.ndarray, np.ndarray]:
    """(values, rids) with rids ascending, permuted, or as sorted runs."""
    values = draw(columns())
    n = len(values)
    layout = draw(st.sampled_from(["ascending", "permuted", "runs"]))
    if layout == "ascending":
        gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        return values, np.cumsum(np.array(gaps, dtype=np.int64))
    if layout == "permuted":
        perm = draw(st.permutations(range(n)))
        return values, np.array(perm, dtype=np.int64)
    # rid blocks [cuts[k], cuts[k + 1]), each (value, rid)-sorted, in order
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    rids = np.arange(n, dtype=np.int64)
    order = np.concatenate([
        lo + np.lexsort((rids[lo:hi], values[lo:hi]))
        for lo, hi in zip([0, *cuts], [*cuts, n])
    ]).astype(np.intp)
    return values[order], rids[order]


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@settings(deadline=None, max_examples=300)
@given(columns())
def test_stable_argsort_equals_numpy_stable_argsort(values):
    _assert_same(stable_argsort(values), np.argsort(values, kind="stable"))


@settings(deadline=None, max_examples=300)
@given(keyed_columns())
def test_lexsort_values_rids_equals_numpy_lexsort(keyed):
    values, rids = keyed
    _assert_same(lexsort_values_rids(values, rids),
                 np.lexsort((rids, values)))


def test_stable_argsort_on_long_tie_heavy_columns():
    """Past the small-array sorting networks: runs of every kind of tie in
    60 000 entries (the shape of a Presort fragment)."""
    rng = np.random.default_rng(5)
    n = 60_000
    pool = np.array([-np.inf, -0.0, 0.0, 1.5, np.inf, np.nan, -np.nan])
    for values in (rng.choice(pool, n),
                   np.where(rng.random(n) < 0.57, 0.0, rng.random(n)),
                   rng.integers(0, 61, n).astype(np.float32),
                   rng.integers(0, 3, n).astype(np.uint8),
                   np.full(n, -0.0),
                   rng.normal(size=n)):
        _assert_same(stable_argsort(values),
                     np.argsort(values, kind="stable"))

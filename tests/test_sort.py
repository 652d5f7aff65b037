"""Parallel sample sort + shift: correctness against numpy, edge cases,
property-based checks on the composite key helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import run_spmd
from repro.sort import (
    block_bounds,
    block_owner_of,
    choose_splitters,
    count_below,
    is_sorted_pairs,
    lexsort_values_rids,
    parallel_sample_sort,
    redistribute_blocks,
)


def _scatter_sort(values, rids, labels, size):
    """Run the parallel sort and return the concatenated global result."""
    n = len(values)
    chunk = -(-n // size) if n else 0

    def worker(comm):
        lo, hi = comm.rank * chunk, min((comm.rank + 1) * chunk, n)
        return parallel_sample_sort(
            comm, values[lo:hi], labels[lo:hi], rids=rids[lo:hi]
        )

    results = run_spmd(size, worker)
    got_v = np.concatenate([r[0] for r in results])
    got_r = np.concatenate([r[1] for r in results])
    got_l = np.concatenate([r[2] for r in results])
    sizes = [len(r[0]) for r in results]
    return got_v, got_r, got_l, sizes


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("n", [0, 1, 7, 100, 1001])
def test_sorted_matches_numpy(size, n):
    rng = np.random.default_rng(n * 31 + size)
    values = rng.normal(0, 1, n)
    rids = rng.permutation(n).astype(np.int64)
    labels = rng.integers(0, 3, n).astype(np.int64)
    got_v, got_r, got_l, sizes = _scatter_sort(values, rids, labels, size)
    order = np.lexsort((rids, values))
    np.testing.assert_array_equal(got_v, values[order])
    np.testing.assert_array_equal(got_r, rids[order])
    np.testing.assert_array_equal(got_l, labels[order])
    # exact ⌈N/p⌉ block balance
    chunk = -(-n // size) if n else 0
    expected_sizes = [
        max(0, min(chunk, n - r * chunk)) for r in range(size)
    ]
    assert sizes == expected_sizes


@pytest.mark.parametrize("size", [2, 4, 7])
def test_duplicate_heavy_total_order(size):
    rng = np.random.default_rng(9)
    n = 500
    values = rng.integers(0, 4, n).astype(np.float64)  # massive duplication
    rids = rng.permutation(n).astype(np.int64)
    labels = np.zeros(n, dtype=np.int64)
    got_v, got_r, _, _ = _scatter_sort(values, rids, labels, size)
    assert is_sorted_pairs(got_v, got_r)
    order = np.lexsort((rids, values))
    np.testing.assert_array_equal(got_r, rids[order])


def test_all_equal_values():
    n, size = 64, 4
    values = np.full(n, 3.25)
    rids = np.arange(n, dtype=np.int64)[::-1].copy()
    labels = np.zeros(n, dtype=np.int64)
    got_v, got_r, _, sizes = _scatter_sort(values, rids, labels, size)
    np.testing.assert_array_equal(got_r, np.arange(n))
    assert sizes == [16, 16, 16, 16]


def test_fewer_records_than_ranks():
    values = np.array([5.0, 1.0, 3.0])
    rids = np.array([0, 1, 2], dtype=np.int64)
    labels = np.array([0, 1, 0], dtype=np.int64)
    got_v, got_r, _, sizes = _scatter_sort(values, rids, labels, 8)
    np.testing.assert_array_equal(got_v, [1.0, 3.0, 5.0])
    assert sum(sizes) == 3


def test_mismatched_lengths_raise():
    def worker(comm):
        parallel_sample_sort(
            comm, np.zeros(3), np.zeros(2), rids=np.arange(3, dtype=np.int64)
        )

    from repro.runtime import SpmdWorkerError

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, worker)


# ---------------------------------------------------------------------------
# key helpers (property-based)
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=80)
@given(
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(0, 10_000)),
        min_size=0,
        max_size=60,
        unique_by=lambda t: t[1],
    ),
    st.integers(-50, 50),
    st.integers(0, 10_000),
)
def test_count_below_matches_bruteforce(pairs, sv, sr):
    pairs.sort()
    values = np.array([float(v) for v, _ in pairs])
    rids = np.array([r for _, r in pairs], dtype=np.int64)
    got = count_below(values, rids, float(sv), sr)
    expected = sum(1 for v, r in pairs if (v, r) < (sv, sr))
    assert got == expected


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=50),
)
def test_lexsort_produces_total_order(raw):
    values = np.array(raw, dtype=np.float64)
    rids = np.arange(len(raw), dtype=np.int64)
    order = lexsort_values_rids(values, rids)
    assert is_sorted_pairs(values[order], rids[order])


def test_is_sorted_pairs_rejects_rid_inversion():
    assert not is_sorted_pairs(np.array([1.0, 1.0]), np.array([5, 2]))
    assert is_sorted_pairs(np.array([1.0, 1.0]), np.array([2, 5]))
    assert is_sorted_pairs(np.array([]), np.array([]))


def test_choose_splitters_count_and_order():
    sv = np.arange(64, dtype=np.float64)
    sr = np.arange(64, dtype=np.int64)
    v, r = choose_splitters(sv, sr, 8)
    assert len(v) == 7
    assert np.all(np.diff(v) > 0)
    v1, _ = choose_splitters(sv, sr, 1)
    assert len(v1) == 0
    v0, _ = choose_splitters(sv[:0], sr[:0], 8)
    assert len(v0) == 0


# ---------------------------------------------------------------------------
# block distribution / shift
# ---------------------------------------------------------------------------

def test_block_bounds_cover_everything():
    for total in (0, 1, 10, 17, 64):
        for size in (1, 3, 8):
            spans = [block_bounds(total, size, r) for r in range(size)]
            assert spans[0][0] == 0
            assert spans[-1][1] == total
            for (a, b), (c, d) in zip(spans, spans[1:]):
                assert b == c
                assert b - a >= d - c or d == c  # non-increasing block sizes


def test_block_owner_of_matches_bounds():
    total, size = 17, 4
    owners = block_owner_of(np.arange(total), total, size)
    for r in range(size):
        lo, hi = block_bounds(total, size, r)
        assert np.all(owners[lo:hi] == r)


@pytest.mark.parametrize("size", [1, 2, 5])
def test_redistribute_blocks_preserves_global_order(size):
    rng = np.random.default_rng(3)
    # deliberately unbalanced fragments
    frags = [rng.normal(0, 1, int(rng.integers(0, 40))) for _ in range(size)]
    flat = np.concatenate(frags)

    def worker(comm):
        mine = frags[comm.rank]
        tag = np.arange(len(mine), dtype=np.int64) + 1000 * comm.rank
        out = redistribute_blocks(comm, [mine, tag])
        return out

    results = run_spmd(size, worker)
    np.testing.assert_array_equal(
        np.concatenate([r[0] for r in results]), flat
    )
    sizes = [len(r[0]) for r in results]
    chunk = -(-len(flat) // size) if len(flat) else 0
    assert all(s <= chunk for s in sizes)
    assert sum(sizes) == len(flat)


def test_redistribute_misaligned_arrays_raise():
    from repro.runtime import SpmdWorkerError

    def worker(comm):
        redistribute_blocks(comm, [np.zeros(3), np.zeros(4)])

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, worker)

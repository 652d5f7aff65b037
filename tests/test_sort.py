"""Parallel sample sort + shift: correctness against numpy, edge cases,
property-based checks on the composite key helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import paper_dataset
from repro.perfmodel import CRAY_T3D, RankTracker, replay
from repro.runtime import TraceCollector, run_spmd
from repro.sort import (
    block_bounds,
    block_owner_of,
    choose_splitters,
    count_below,
    is_sorted_pairs,
    lexsort_values_rids,
    parallel_sample_sort,
    presort_columns,
    redistribute_blocks,
    sample_positions,
    splitter_cuts,
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
# the exchange is balanced: every rank receives about N/p
# ---------------------------------------------------------------------------

def _block_fragments(values, size):
    n = len(values)
    return [(values[lo:hi], np.arange(lo, hi, dtype=np.int64))
            for lo, hi in (block_bounds(n, size, r) for r in range(size))]


def _entries_after_exchange(fragments, size):
    """Entries each rank holds after the splitter exchange, computed from
    the same pieces :func:`presort_columns` uses (no ranks needed)."""
    runs, samples, weights = [], [], []
    for values, rids in fragments:
        order = lexsort_values_rids(values, rids)
        values, rids = values[order], rids[order]
        runs.append((values, rids))
        pick = sample_positions(len(values), size)
        samples.append((values[pick], rids[pick]))
        weights.append(np.full(len(pick), len(values) / max(len(pick), 1)))
    split_v, split_r = choose_splitters(
        np.concatenate([v for v, _ in samples]),
        np.concatenate([r for _, r in samples]),
        size, np.concatenate(weights),
    )
    return sum(np.diff(splitter_cuts(v, r, split_v, split_r, size))
               for v, r in runs)


@pytest.mark.parametrize("size", [2, 3, 4, 8])
def test_exchange_is_balanced_on_quest_columns(size):
    """No rank receives more than 1.15·⌈N/p⌉ entries of any continuous
    Quest column (the min/max sampling this replaced left N − 2 of N on
    rank 0 at p = 2) — measured on the wire, from rank-side traces."""
    ds = paper_dataset(100_000, "F7", seed=1)
    continuous = ds.schema.continuous_indices
    assert len(continuous) == 4
    columns = [np.asarray(ds.columns[a], dtype=np.float64)
               for a in continuous]
    n = ds.n_records

    def worker(comm):
        lo, hi = block_bounds(n, comm.size, comm.rank)
        rids = np.arange(lo, hi, dtype=np.int64)
        for _ in presort_columns(comm, [c[lo:hi] for c in columns],
                                 ds.labels[lo:hi], rids=rids):
            pass

    collector = TraceCollector()
    run_spmd(size, worker, trace=collector)
    full_block = None
    for rank in range(size):
        moves = [ev for ev in collector.events_of(rank)
                 if ev.kind == "alltoall"]
        assert len(moves) == 2 * len(columns)
        exchanges = moves[0::2]
        if rank == 0:   # rank 0 sends a full ⌈N/p⌉ block
            full_block = exchanges[0].payload_nbytes
        for ev in exchanges:
            assert ev.result_nbytes <= 1.15 * full_block, (rank, ev)

    for column in columns:
        held = _entries_after_exchange(_block_fragments(column, size), size)
        assert held.sum() == n
        assert held.max() <= 1.15 * -(-n // size)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([2, 3, 4, 8]),
    st.lists(st.integers(0, 90), min_size=8, max_size=8),
    st.sampled_from([1, 3, 1000]),
    st.integers(0, 2**32 - 1),
)
def test_exchange_never_piles_up(size, lengths, n_distinct, seed):
    """Degenerate inputs — heavy duplicates, all-equal values, N < p,
    empty and unequal ranks: never more than 2·⌈N/p⌉ on one rank."""
    rng = np.random.default_rng(seed)
    lengths = lengths[:size]
    n = sum(lengths)
    values = rng.integers(0, n_distinct, n).astype(np.float64)
    rids = np.arange(n, dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    fragments = [(values[a:b], rids[a:b])
                 for a, b in zip(bounds[:-1], bounds[1:])]
    held = _entries_after_exchange(fragments, size)
    assert held.sum() == n
    assert held.max() <= 2 * -(-n // size)


# ---------------------------------------------------------------------------
# wire records: narrowed for the trip, widened on receipt
# ---------------------------------------------------------------------------

def _wire_record_bytes(collector, n_local):
    """Bytes per entry rank 0 put on the wire in its first exchange."""
    ev = next(ev for ev in collector.events_of(0) if ev.kind == "alltoall")
    return ev.payload_nbytes // n_local


@pytest.mark.parametrize("rid_base,label_top,record_bytes", [
    (0, 1, 8 + 2 + 1),             # the paper's profile at small N
    (70_000, 1, 8 + 4 + 1),        # N ≥ 2¹⁶: four-byte rids, 13 in all
    (2**31, 300, 8 + 4 + 2),       # still four bytes; n_classes > 255
    (2**32, 70_000, 8 + 8 + 4),    # int64 rids stay int64 on the wire
    (-5, 1, 8 + 8 + 1),            # negative ids are never narrowed
])
@pytest.mark.parametrize("arrangement", ["ascending", "reversed", "permuted"])
def test_wire_narrowing_round_trips(rid_base, label_top, record_bytes,
                                    arrangement):
    n, size = 1200, 3
    rng = np.random.default_rng(n + label_top)
    values = rng.integers(0, 40, n).astype(np.float64)   # heavy ties
    rids = rid_base + np.arange(n, dtype=np.int64)
    if arrangement == "reversed":
        rids = rids[::-1].copy()
    elif arrangement == "permuted":
        rids = rng.permutation(rids)
    labels = rng.integers(0, label_top + 1, n).astype(np.int64)
    labels[0] = label_top
    weights = rng.normal(0, 1, n)   # a float payload travels untouched
    chunk = -(-n // size)

    def worker(comm):
        lo, hi = comm.rank * chunk, min((comm.rank + 1) * chunk, n)
        return parallel_sample_sort(
            comm, values[lo:hi], labels[lo:hi], weights[lo:hi],
            rids=rids[lo:hi],
        )

    collector = TraceCollector()
    results = run_spmd(size, worker, trace=collector)
    order = np.lexsort((rids, values))
    for k, expected in enumerate((values, rids, labels, weights)):
        got = np.concatenate([r[k] for r in results])
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected[order])
    assert _wire_record_bytes(collector, chunk) == record_bytes + 8


def test_presort_registers_its_transient_buffers():
    """The in-flight receive + merge buffers reach the memory tracker."""
    n, size = 4000, 2
    values = np.random.default_rng(4).normal(0, 1, n)
    labels = np.zeros(n, dtype=np.int64)
    trackers = [RankTracker() for _ in range(size)]

    def worker(comm):
        lo, hi = block_bounds(n, comm.size, comm.rank)
        parallel_sample_sort(comm, values[lo:hi], labels[lo:hi],
                             rids=np.arange(lo, hi, dtype=np.int64))

    run_spmd(size, worker, rank_perf=trackers)
    for tracker in replay(trackers, CRAY_T3D):
        # the sent run, the received runs and their merge: three copies
        # of ≈ N/p thirteen-byte records at least
        assert tracker.memory_watermark >= 3 * 0.9 * (n // size) * 11
        assert tracker.persistent_total == 0


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

"""Distributed hash tables and the parallel hashing paradigm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    DistributedChainedHashTable,
    DistributedNodeTable,
    group_by_destination,
    multiplicative_hash,
)
from repro.runtime import (
    SpmdWorkerError,
    TraceCollector,
    payload_nbytes,
    run_spmd,
)


def _frag(arr, rank, size):
    chunk = -(-len(arr) // size) if len(arr) else 0
    return arr[rank * chunk:(rank + 1) * chunk]


# ---------------------------------------------------------------------------
# grouping machinery
# ---------------------------------------------------------------------------

def test_group_by_destination_stable_and_invertible():
    dest = np.array([2, 0, 2, 1, 0, 2])
    payload = np.arange(6) * 10
    sections, (grouped,), perm = group_by_destination(dest, 3, payload)
    np.testing.assert_array_equal(grouped[sections[0]], [10, 40])
    np.testing.assert_array_equal(grouped[sections[1]], [30])
    np.testing.assert_array_equal(grouped[sections[2]], [0, 20, 50])
    restored = np.empty_like(grouped)
    restored[perm] = grouped
    np.testing.assert_array_equal(restored, payload)


def test_group_by_destination_empty():
    sections, (grouped,), perm = group_by_destination(
        np.array([], dtype=np.int64), 4, np.array([], dtype=np.int64)
    )
    assert len(sections) == 4
    assert len(grouped) == 0


# ---------------------------------------------------------------------------
# the collision-free node table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [1, 2, 5, 8])
@pytest.mark.parametrize("n", [1, 10, 97, 1000])
def test_node_table_update_lookup_roundtrip(size, n):
    rng = np.random.default_rng(n + size)
    keys = rng.permutation(n).astype(np.int64)
    vals = rng.integers(0, 1000, n).astype(np.int32)
    ref = np.empty(n, dtype=np.int32)
    ref[keys] = vals

    def worker(comm):
        table = DistributedNodeTable(comm, n)
        table.update(_frag(keys, comm.rank, comm.size),
                     _frag(vals, comm.rank, comm.size))
        query = rng.permutation(n)[: max(1, n // 2)].astype(np.int64) \
            if comm.rank == 0 else np.empty(0, dtype=np.int64)
        got = table.lookup(query)
        return query, got

    for query, got in run_spmd(size, worker):
        np.testing.assert_array_equal(got, ref[query])


def test_node_table_initial_fill():
    def worker(comm):
        table = DistributedNodeTable(comm, 20, fill=-7)
        return table.lookup(
            np.arange(20, dtype=np.int64) if comm.rank == 0
            else np.empty(0, dtype=np.int64)
        )

    out = run_spmd(3, worker)[0]
    assert np.all(out == -7)


def test_node_table_partial_update_leaves_rest():
    def worker(comm):
        table = DistributedNodeTable(comm, 10)
        if comm.rank == 0:
            table.update(np.array([3, 7], dtype=np.int64),
                         np.array([30, 70], dtype=np.int32))
        else:
            table.update(np.empty(0, dtype=np.int64),
                         np.empty(0, dtype=np.int32))
        return table.lookup(np.arange(10, dtype=np.int64))

    out = run_spmd(2, worker)[0]
    expected = np.full(10, -1)
    expected[3], expected[7] = 30, 70
    np.testing.assert_array_equal(out, expected)


def test_node_table_out_of_range_key_raises():
    def worker(comm):
        table = DistributedNodeTable(comm, 10)
        table.update(np.array([10], dtype=np.int64),
                     np.array([1], dtype=np.int32))

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, worker)


def test_node_table_misaligned_raises():
    def worker(comm):
        table = DistributedNodeTable(comm, 10)
        table.update(np.array([1], dtype=np.int64),
                     np.array([1, 2], dtype=np.int32))

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, worker)


def test_blocked_updates_bound_round_size():
    """One rank pushes everything; blocking caps each round at max_block."""
    n, size, block = 400, 4, 25

    def worker(comm):
        table = DistributedNodeTable(comm, n)
        if comm.rank == 0:
            keys = np.arange(n, dtype=np.int64)
            rounds = table.update(keys, keys.astype(np.int32),
                                  max_block=block)
        else:
            rounds = table.update(np.empty(0, dtype=np.int64),
                                  np.empty(0, dtype=np.int32),
                                  max_block=block)
        check = table.lookup(
            np.arange(n, dtype=np.int64) if comm.rank == 1
            else np.empty(0, dtype=np.int64)
        )
        return rounds, check

    trace = TraceCollector()
    results = run_spmd(size, worker, trace=trace)
    rounds = n // block
    assert all(r[0] == rounds for r in results)  # 16 rounds everywhere
    np.testing.assert_array_equal(results[1][1], np.arange(n))
    # ... and no rank puts more than max_block (slot, value) pairs into
    # any one of them; rank 0's 100 home pairs never enter a buffer
    pair_nbytes, no_pairs = 2 * 4, payload_nbytes([])
    for rank in range(size):
        updates = [ev.payload_nbytes - no_pairs
                   for ev in trace.events_of(rank)
                   if ev.kind == "alltoallv"][:rounds]
        assert len(updates) == rounds
        assert max(updates) <= block * pair_nbytes
        assert sum(updates) == \
            ((n - n // size) * pair_nbytes if rank == 0 else 0)


def test_unblocked_update_single_round():
    def worker(comm):
        table = DistributedNodeTable(comm, 100)
        keys = np.arange(100, dtype=np.int64) if comm.rank == 0 \
            else np.empty(0, dtype=np.int64)
        return table.update(keys, keys.astype(np.int32), blocked=False)

    assert run_spmd(4, worker) == [1, 1, 1, 1]


def test_node_table_slot_math():
    def worker(comm):
        table = DistributedNodeTable(comm, 10)  # chunk = ceil(10/4) = 3
        keys = np.array([0, 3, 9], dtype=np.int64)
        return (table.owner_of(keys).tolist(),
                table.slot_of(keys).tolist(), table.chunk,
                len(table.local_slice()))

    results = run_spmd(4, worker)
    owners, slots, chunk, _ = results[0]
    assert chunk == 3
    assert owners == [0, 1, 3]
    assert slots == [0, 0, 0]
    # trailing rank owns the short slice
    assert [r[3] for r in results] == [3, 3, 3, 1]


def test_node_table_negative_total_raises():
    def worker(comm):
        DistributedNodeTable(comm, -1)

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, worker)


# ---------------------------------------------------------------------------
# general chained table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_slots", [4, 64, 4096])
def test_chained_table_matches_dict(n_slots):
    rng = np.random.default_rng(5)
    keys = rng.choice(100_000, size=300, replace=False).astype(np.int64)
    vals = rng.integers(-50, 50, 300).astype(np.int64)
    ref = dict(zip(keys.tolist(), vals.tolist()))

    def worker(comm):
        table = DistributedChainedHashTable(comm, n_slots)
        table.insert(_frag(keys, comm.rank, comm.size),
                     _frag(vals, comm.rank, comm.size))
        q = keys if comm.rank == 0 else keys[:0]
        return table.get(q)

    got = run_spmd(3, worker)[0]
    np.testing.assert_array_equal(got, [ref[k] for k in keys.tolist()])


def test_chained_table_missing_and_delete():
    def worker(comm):
        table = DistributedChainedHashTable(comm, 16, missing=-99)
        keys = np.array([10, 20, 30], dtype=np.int64) if comm.rank == 0 \
            else np.empty(0, dtype=np.int64)
        table.insert(keys, keys * 2)
        miss = table.get(np.array([777], dtype=np.int64))
        table.delete(np.array([20], dtype=np.int64) if comm.rank == 0
                     else np.empty(0, dtype=np.int64))
        after = table.get(np.array([10, 20, 30], dtype=np.int64))
        return miss, after

    miss, after = run_spmd(2, worker)[0]
    assert miss[0] == -99
    np.testing.assert_array_equal(after, [20, -99, 60])


def test_chained_table_overwrite_last_wins():
    def worker(comm):
        table = DistributedChainedHashTable(comm, 8)
        if comm.rank == 0:
            table.insert(np.array([5, 5], dtype=np.int64),
                         np.array([1, 2], dtype=np.int64))
        else:
            table.insert(np.empty(0, dtype=np.int64),
                         np.empty(0, dtype=np.int64))
        return table.get(np.array([5], dtype=np.int64))

    assert run_spmd(2, worker)[0][0] == 2


def test_chained_table_collisions_resolved():
    """A 2-slot space forces every key into chains; semantics must hold."""
    keys = np.arange(50, dtype=np.int64)

    def worker(comm):
        table = DistributedChainedHashTable(comm, 2)
        table.insert(keys if comm.rank == 0 else keys[:0],
                     keys * 3 if comm.rank == 0 else keys[:0])
        chains = table.local_chain_lengths()
        got = table.get(keys if comm.rank == 1 else keys[:0])
        return chains, got

    results = run_spmd(2, worker)
    np.testing.assert_array_equal(results[1][1], keys * 3)
    assert sum(c.sum() for c, _ in results) == 50  # all entries stored


def test_chained_table_validates_args():
    def worker(comm):
        DistributedChainedHashTable(comm, 0)

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, worker)


def test_multiplicative_hash_range_and_determinism():
    keys = np.arange(10_000, dtype=np.int64)
    h1 = multiplicative_hash(keys, 128)
    h2 = multiplicative_hash(keys, 128)
    np.testing.assert_array_equal(h1, h2)
    assert h1.min() >= 0 and h1.max() < 128
    # decent spread: no slot takes more than 5x the fair share
    counts = np.bincount(h1, minlength=128)
    assert counts.max() < 5 * (10_000 / 128)


# ---------------------------------------------------------------------------
# property-based: table vs dict model
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=25)
@given(
    st.lists(
        st.tuples(st.integers(0, 49), st.integers(0, 100)),
        min_size=1,
        max_size=60,
    ),
    st.integers(2, 4),
)
def test_node_table_vs_dict_model(ops, size):
    """Sequential batches of updates must behave like dict writes."""
    n = 50

    def worker(comm):
        table = DistributedNodeTable(comm, n)
        # replay updates in three batches split round-robin by position,
        # rank 0 sending batch contents (same global outcome as a dict)
        for start in range(0, len(ops), 20):
            batch = ops[start:start + 20]
            if comm.rank == 0:
                ks = np.array([k for k, _ in batch], dtype=np.int64)
                vs = np.array([v for _, v in batch], dtype=np.int32)
            else:
                ks = np.empty(0, dtype=np.int64)
                vs = np.empty(0, dtype=np.int32)
            table.update(ks, vs)
        return table.lookup(
            np.arange(n, dtype=np.int64) if comm.rank == 0
            else np.empty(0, dtype=np.int64)
        )

    got = run_spmd(size, worker)[0]
    model = np.full(n, -1, dtype=np.int32)
    for k, v in ops:
        model[k] = v
    np.testing.assert_array_equal(got, model)


# ---------------------------------------------------------------------------
# property-based: the paradigm vs a dict model, home and away made explicit
# ---------------------------------------------------------------------------

def _spy_alltoallv(comm) -> list[int]:
    """Log the length of the block a rank addresses to itself in every
    ``alltoallv`` it issues from now on."""
    own_blocks: list[int] = []
    alltoallv = comm.alltoallv

    def spy(arrays):
        own_blocks.append(len(arrays[comm.rank]))
        return alltoallv(arrays)

    comm.alltoallv = spy
    return own_blocks


def _place(draw, owners: np.ndarray, size: int, where: str) -> np.ndarray:
    """For each key, the rank that touches it: its owner (``home``), some
    other rank (``away``; the owner again when there is no other), or any
    rank (``mixed``)."""
    if where == "home" or size == 1:
        return owners
    ranks = np.array(draw(st.lists(st.integers(0, size - 1),
                                   min_size=len(owners),
                                   max_size=len(owners))), dtype=np.int64)
    if where == "mixed":
        return ranks
    return (owners + 1 + ranks % (size - 1)) % size


_WHERE = st.sampled_from(["home", "away", "mixed"])


@settings(deadline=None, max_examples=40)
@given(st.data(), st.sampled_from([1, 2, 3, 5]), st.integers(0, 12),
       _WHERE, _WHERE, st.sampled_from([np.int32, np.int64]),
       st.sampled_from([None, 1, 3]))
def test_node_table_vs_dict_model_home_and_away(
        data, size, n, write_from, read_from, key_dtype, max_block):
    """``lookup(update(...))`` equals a dict, whoever owns the keys —
    N < p and empty ranks included — and no key travels to its own rank:
    the all-to-alls (one per update round, two per lookup) carry an empty
    own block."""
    draw = data.draw
    chunk = -(-n // size) if n else 1
    keys = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    keys = keys[:draw(st.integers(0, n))]
    values = (keys * 7 + 3).astype(np.int32)
    writers = _place(draw, keys // chunk, size, write_from)
    queries = np.array(draw(st.lists(st.integers(0, max(n - 1, 0)),
                                     max_size=2 * n if n else 0)),
                       dtype=np.int64)
    readers = _place(draw, queries // chunk, size, read_from)

    def worker(comm):
        table = DistributedNodeTable(comm, n)
        own_blocks = _spy_alltoallv(comm)
        mine = writers == comm.rank
        rounds = table.update(keys[mine].astype(key_dtype), values[mine],
                              blocked=max_block is not None,
                              max_block=max_block)
        asked = queries[readers == comm.rank]
        got = table.lookup(asked.astype(key_dtype))
        return asked, got, rounds, own_blocks

    model = dict(zip(keys.tolist(), values.tolist()))
    for asked, got, rounds, own_blocks in run_spmd(size, worker):
        assert got.dtype == np.int32
        assert got.tolist() == [model.get(k, -1) for k in asked.tolist()]
        assert own_blocks == [0] * (rounds + 2)


@settings(deadline=None, max_examples=25)
@given(st.data(), st.sampled_from([1, 2, 3, 5]))
def test_chained_table_later_source_rank_wins_home_or_away(data, size):
    """A key inserted by two ranks in one call ends with the higher source
    rank's value, whether or not one of the two is the key's owner."""
    draw = data.draw
    n_slots = 16
    keys = np.array(draw(st.lists(st.integers(0, 10_000), min_size=1,
                                  max_size=12, unique=True)), dtype=np.int64)
    owners = multiplicative_hash(keys, n_slots) // -(-n_slots // size)
    first = _place(draw, owners, size, draw(_WHERE))
    second = _place(draw, owners, size, draw(_WHERE))

    def worker(comm):
        table = DistributedChainedHashTable(comm, n_slots)
        own_blocks = _spy_alltoallv(comm)
        mine = (first == comm.rank) | (second == comm.rank)
        table.insert(keys[mine], keys[mine] * size + comm.rank)
        return table.get(keys), own_blocks

    expected = keys * size + np.maximum(first, second)
    for got, own_blocks in run_spmd(size, worker):
        np.testing.assert_array_equal(got, expected)
        assert own_blocks == [0, 0, 0]

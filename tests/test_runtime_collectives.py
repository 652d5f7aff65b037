"""Collective semantics of the simulated SPMD runtime.

Each collective is checked against its MPI definition for several rank
counts, including p=1 (the no-thread fast path) and empty payloads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import (
    CollectiveMismatchError,
    InvalidRankError,
    SpmdWorkerError,
    reduction,
    run_spmd,
)

SIZES = [1, 2, 3, 4, 8]


@pytest.mark.parametrize("size", SIZES)
def test_barrier_completes(size):
    def worker(comm):
        for _ in range(3):
            comm.barrier()
        return comm.rank

    assert run_spmd(size, worker) == list(range(size))


@pytest.mark.parametrize("size", SIZES)
def test_allgather_everyone_gets_everything(size):
    def worker(comm):
        return comm.allgather(f"rank-{comm.rank}")

    results = run_spmd(size, worker)
    expected = [f"rank-{i}" for i in range(size)]
    assert all(r == expected for r in results)


@pytest.mark.parametrize("size", SIZES)
def test_allgatherv_concatenates_in_rank_order(size):
    def worker(comm):
        arr = np.full(comm.rank, comm.rank, dtype=np.int64)  # rank 0: empty
        return comm.allgatherv(arr)

    results = run_spmd(size, worker)
    expected = np.concatenate(
        [np.full(i, i, dtype=np.int64) for i in range(size)]
    )
    for r in results:
        np.testing.assert_array_equal(r, expected)


@pytest.mark.parametrize("size", SIZES)
def test_reduce_sum_matrix(size):
    def worker(comm):
        data = np.full((2, 3), comm.rank + 1, dtype=np.int64)
        return comm.reduce(data, reduction.SUM, root=0)

    results = run_spmd(size, worker)
    total = sum(range(1, size + 1))
    np.testing.assert_array_equal(results[0], np.full((2, 3), total))
    assert all(r is None for r in results[1:])


@pytest.mark.parametrize("size", SIZES)
def test_allreduce_results_are_private_copies(size):
    def worker(comm):
        out = comm.allreduce(np.arange(4, dtype=np.int64), reduction.SUM)
        out += comm.rank  # must not leak to other ranks
        return out

    results = run_spmd(size, worker)
    base = np.arange(4, dtype=np.int64) * size
    for r, out in enumerate(results):
        np.testing.assert_array_equal(out, base + r)


@pytest.mark.parametrize("size", SIZES)
def test_exscan_prefixes(size):
    def worker(comm):
        return int(comm.exscan(np.int64(comm.rank + 1), reduction.SUM))

    results = run_spmd(size, worker)
    for r, ex in enumerate(results):
        assert ex == sum(range(1, r + 1))


@pytest.mark.parametrize("size", SIZES)
def test_alltoall_transpose(size):
    def worker(comm):
        return comm.alltoall([(comm.rank, j) for j in range(size)])

    results = run_spmd(size, worker)
    for j, received in enumerate(results):
        assert received == [(i, j) for i in range(size)]


@pytest.mark.parametrize("size", SIZES)
def test_alltoallv_array_exchange(size):
    def worker(comm):
        bufs = [
            np.arange(j + 1, dtype=np.int32) + comm.rank * 100
            for j in range(size)
        ]
        return comm.alltoallv(bufs)

    results = run_spmd(size, worker)
    for j, received in enumerate(results):
        assert len(received) == size
        for i, arr in enumerate(received):
            np.testing.assert_array_equal(
                arr, np.arange(j + 1, dtype=np.int32) + i * 100
            )


def test_alltoall_wrong_buffer_count_raises():
    def worker(comm):
        return comm.alltoall([1] * (comm.size + 1))

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, worker)


# ---------------------------------------------------------------------------
# point-to-point
# ---------------------------------------------------------------------------

def test_send_recv_roundtrip():
    def worker(comm):
        if comm.rank == 0:
            comm.send(np.arange(5), dest=1, tag=3)
            return comm.recv(source=1, tag=4)
        comm.send("pong", dest=0, tag=4)
        got = comm.recv(source=0, tag=3)
        return got.sum()

    results = run_spmd(2, worker)
    assert results[0] == "pong"
    assert results[1] == 10


def test_recv_matches_tag_out_of_order():
    def worker(comm):
        if comm.rank == 0:
            comm.send("a", dest=1, tag=1)
            comm.send("b", dest=1, tag=2)
            return None
        first = comm.recv(source=0, tag=2)  # skip over tag-1 message
        second = comm.recv(source=0, tag=1)
        return first, second

    assert run_spmd(2, worker)[1] == ("b", "a")


def test_send_to_invalid_rank_raises():
    def worker(comm):
        comm.send("x", dest=5)

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, worker)


# ---------------------------------------------------------------------------
# failure semantics
# ---------------------------------------------------------------------------

def test_worker_exception_aborts_all_ranks():
    def worker(comm):
        if comm.rank == 1:
            raise RuntimeError("deliberate")
        comm.barrier()  # would deadlock without abort propagation

    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(4, worker)
    assert 1 in excinfo.value.failures
    assert isinstance(excinfo.value.failures[1], RuntimeError)


def test_mismatched_collectives_detected():
    def worker(comm):
        if comm.rank == 0:
            comm.barrier()
        else:
            comm.allgather(1)

    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(2, worker)
    assert any(
        isinstance(e, CollectiveMismatchError)
        for e in excinfo.value.failures.values()
    )


def test_mismatched_roots_detected():
    def worker(comm):
        comm.reduce(np.int64(1), reduction.SUM, root=comm.rank)  # roots differ

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, worker)


def test_invalid_root_raises():
    def worker(comm):
        comm.reduce(np.int64(1), reduction.SUM, root=99)

    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(2, worker)
    assert any(
        isinstance(e, InvalidRankError)
        for e in excinfo.value.failures.values()
    )


def test_run_spmd_validates_size():
    with pytest.raises(ValueError):
        run_spmd(0, lambda comm: None)


def test_results_in_rank_order():
    assert run_spmd(6, lambda comm: comm.rank ** 2) == [
        0, 1, 4, 9, 16, 25
    ]


def test_collectives_deterministic_across_runs():
    def worker(comm):
        total = np.float64(0.0)
        for i in range(20):
            total += comm.allreduce(
                np.float64(comm.rank * 0.1 + i), reduction.SUM
            )
        return float(total)

    first = run_spmd(5, worker)
    for _ in range(3):
        assert run_spmd(5, worker) == first

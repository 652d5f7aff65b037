"""Sub-communicators (split), sendrecv, reduce_scatter, engine stress, and
what the thread engine promises: structural deadlock detection and more
ranks than cores."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.runtime import (
    CollectiveAbortedError,
    SpmdWorkerError,
    reduction,
    run_spmd,
)
from repro.runtime.engines.thread import usable_cores

from tests.test_engine_conformance import (
    _collectives_worker,
    check_collectives,
)


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_even_odd_groups():
    def worker(comm):
        sub = comm.split(color=comm.rank % 2)
        total = sub.allreduce(np.int64(comm.rank), reduction.SUM)
        return sub.rank, sub.size, int(total)

    results = run_spmd(6, worker)
    evens = [r for i, r in enumerate(results) if i % 2 == 0]
    odds = [r for i, r in enumerate(results) if i % 2 == 1]
    assert [r[0] for r in evens] == [0, 1, 2]  # re-ranked densely
    assert all(r[1] == 3 for r in evens)
    assert all(r[2] == 0 + 2 + 4 for r in evens)
    assert all(r[2] == 1 + 3 + 5 for r in odds)


def test_split_key_reorders_ranks():
    def worker(comm):
        sub = comm.split(color=0, key=-comm.rank)  # reverse order
        return sub.rank

    assert run_spmd(4, worker) == [3, 2, 1, 0]


def test_split_negative_color_opts_out():
    def worker(comm):
        sub = comm.split(color=0 if comm.rank < 2 else -1)
        if sub is None:
            return "out"
        return sub.allgather(comm.rank)

    results = run_spmd(4, worker)
    assert results[0] == [0, 1]
    assert results[2] == "out"
    assert results[3] == "out"


def test_split_subgroups_are_isolated():
    """Collectives on different sub-communicators cannot deadlock or mix."""

    def worker(comm):
        sub = comm.split(color=comm.rank // 2)
        # group {0,1} does 3 rounds; group {2,3} does 1 — no lockstep needed
        rounds = 3 if comm.rank < 2 else 1
        total = 0
        for _ in range(rounds):
            total += int(sub.allreduce(np.int64(1), reduction.SUM))
        comm.barrier()  # parent still usable afterwards
        return total

    assert run_spmd(4, worker) == [6, 6, 2, 2]


def test_split_point_to_point_private():
    def worker(comm):
        sub = comm.split(color=comm.rank % 2)
        if sub.size == 2:
            if sub.rank == 0:
                sub.send(f"from-{comm.rank}", dest=1)
                return None
            return sub.recv(source=0)
        return None

    results = run_spmd(4, worker)
    assert results[2] == "from-0"
    assert results[3] == "from-1"


def test_nested_split():
    def worker(comm):
        half = comm.split(color=comm.rank // 4)
        quarter = half.split(color=half.rank // 2)
        return quarter.allgather(comm.rank)

    results = run_spmd(8, worker)
    assert results[0] == [0, 1]
    assert results[2] == [2, 3]
    assert results[6] == [6, 7]


# ---------------------------------------------------------------------------
# sendrecv / reduce_scatter
# ---------------------------------------------------------------------------

def test_sendrecv_cyclic_shift_no_deadlock():
    def worker(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        return comm.sendrecv(comm.rank, dest=right, source=left)

    assert run_spmd(5, worker) == [4, 0, 1, 2, 3]


@pytest.mark.parametrize("size", [1, 2, 4])
def test_reduce_scatter_rows(size):
    def worker(comm):
        contribution = np.full((comm.size, 3), comm.rank + 1, dtype=np.int64)
        return comm.reduce_scatter(contribution, reduction.SUM)

    total = sum(range(1, size + 1))
    for row in run_spmd(size, worker):
        np.testing.assert_array_equal(row, [total] * 3)


def test_reduce_scatter_wrong_leading_axis():
    def worker(comm):
        comm.reduce_scatter(np.zeros((comm.size + 1, 2)), reduction.SUM)

    with pytest.raises(SpmdWorkerError):
        run_spmd(3, worker)


# ---------------------------------------------------------------------------
# engine stress
# ---------------------------------------------------------------------------

def test_many_ranks_many_collectives():
    def worker(comm):
        acc = np.int64(0)
        for i in range(50):
            acc += comm.allreduce(np.int64(i), reduction.SUM)
        return int(acc)

    results = run_spmd(64, worker)
    expected = sum(i * 64 for i in range(50))
    assert all(r == expected for r in results)


def test_interleaved_ptp_and_collectives():
    def worker(comm):
        received = []
        for round_no in range(5):
            if comm.rank == 0:
                for dest in range(1, comm.size):
                    comm.send((round_no, dest), dest=dest, tag=round_no)
            else:
                received.append(comm.recv(source=0, tag=round_no))
            comm.barrier()
        return received

    results = run_spmd(4, worker)
    for r in range(1, 4):
        assert results[r] == [(i, r) for i in range(5)]


# ---------------------------------------------------------------------------
# the thread engine: no timed waits, at most one running rank per core
# ---------------------------------------------------------------------------

def _recv_cycle(comm):
    comm.recv((comm.rank + 1) % comm.size, tag=99)


def _recv_facing_barrier(comm):
    if comm.rank == 0:
        comm.recv(1, tag=5)
    else:
        comm.barrier()


def _recv_cycle_in_split(comm):
    sub = comm.split(comm.rank % 2)
    sub.recv((sub.rank + 1) % sub.size, tag=3)


@pytest.mark.parametrize("worker,stuck", [
    (_recv_cycle, ["rank 0 in recv(source=1, tag=99)",
                   "rank 3 in recv(source=0, tag=99)"]),
    (_recv_facing_barrier, ["rank 0 in recv(source=1, tag=5)",
                            "rank 3 in collective 'barrier'"]),
    (_recv_cycle_in_split, ["rank 0 in recv(source=1, tag=3)",
                            "rank 3 in recv(source=0, tag=3)"]),
])
def test_deadlock_is_detected_structurally(worker, stuck):
    """Every live rank parked is a deadlock: the job aborts at once,
    with no timeout given, naming the call each rank is stuck in."""
    start = time.monotonic()
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(4, worker)
    assert time.monotonic() - start < 1.0
    failures = exc_info.value.failures
    assert set(failures) == {0, 1, 2, 3}
    for exc in failures.values():
        assert isinstance(exc, CollectiveAbortedError)
        assert str(exc).startswith("deadlock detected: ")
        for call in stuck:
            assert call in str(exc)


def _within(seconds, fn, *args):
    """``fn(*args)`` on a daemon thread: a hang fails the test instead of
    stalling the run."""
    box = {}

    def target():
        try:
            box["value"] = fn(*args)
        except BaseException as exc:    # re-raised on the test's thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def test_collectives_with_ranks_queued_for_a_core():
    """Four ranks per core: most ranks wait for a slot at every step, and
    a short switch interval preempts them anywhere in between."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = _within(60, run_spmd, 4 * usable_cores(),
                          _collectives_worker)
    finally:
        sys.setswitchinterval(interval)
    check_collectives(results)


def _polling_chain(comm, poll):
    """Every rank but the last polls for its right neighbour's message
    before passing one left, so at first every rank holding a core
    polls, and only a rank still queued for one can start the chain."""
    got = 0
    if comm.rank < comm.size - 1:
        source = comm.rank + 1
        if poll == "test":
            req = comm.irecv(source, tag=7)
            while not req.test()[0]:
                pass
            got = req.wait()
        else:
            while not comm.iprobe(source, tag=7):
                pass
            got = comm.recv(source, tag=7)
    if comm.rank:
        comm.send(got + 1, comm.rank - 1, tag=7)
    return got


@pytest.mark.parametrize("poll", ["test", "iprobe"])
def test_polling_loop_with_more_ranks_than_cores(poll):
    size = 2 * usable_cores() + 1
    results = _within(60, run_spmd, size, _polling_chain, (poll,))
    assert results == [size - 1 - r for r in range(size)]

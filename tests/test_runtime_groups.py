"""Engine stress, and what the thread engine promises: structural
deadlock detection and more ranks than cores."""

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


@pytest.mark.parametrize("worker,stuck", [
    (_recv_cycle, ["rank 0 in recv(source=1, tag=99)",
                   "rank 3 in recv(source=0, tag=99)"]),
    (_recv_facing_barrier, ["rank 0 in recv(source=1, tag=5)",
                            "rank 3 in collective 'barrier'"]),
])
def test_deadlock_is_detected_structurally(worker, stuck):
    """Every live rank parked is a deadlock: the job aborts at once,
    with no timeout given, naming the call each rank is stuck in.  Only
    the thread engine detects a deadlock structurally
    (``detects_deadlock``), so the test names it whatever
    ``REPRO_SPMD_BACKEND`` selects."""
    start = time.monotonic()
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(4, worker, backend="thread")
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

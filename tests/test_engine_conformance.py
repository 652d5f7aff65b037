"""Engine-conformance suite: every backend must implement the identical
Communicator contract.

Each test is parametrized over ``available_backends()`` so a newly
registered engine is automatically held to the same bar: collectives,
point-to-point (blocking and nonblocking), sub-communicators, mismatch
detection, abort semantics with preserved tracebacks, timeouts, observer
accounting, perf-model fidelity, and end-to-end induction equivalence.
"""

from __future__ import annotations

import os
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core import InductionConfig
from repro.core.induction import induce_worker
from repro.perfmodel import CRAY_T3D, PerfRun
from repro.runtime import (
    ANY_TAG,
    CollectiveAbortedError,
    CollectiveMismatchError,
    SpmdWorkerError,
    WorkerCrashError,
    available_backends,
    get_engine,
    payload_nbytes,
    reduction,
    resolve_timeout,
    run_spmd,
)
from repro.runtime.engines.base import DEFAULT_TIMEOUT, TIMEOUT_ENV
from repro.runtime.engines.process import ProcessEngine, _Router
from repro.runtime.tracing.events import payload_digest

from tests.conftest import assert_trees_equal

BACKENDS = available_backends()

pytestmark = pytest.mark.parametrize("backend", BACKENDS)


# ----------------------------------------------------------------------
# workers (module-level: the process backend may need to pickle them)
# ----------------------------------------------------------------------


def _collectives_worker(comm):
    out = {}
    out["bcast"] = comm.bcast("payload" if comm.rank == 1 else None, root=1)
    out["gather"] = comm.gather(comm.rank * 10, root=0)
    out["allgather"] = comm.allgather(comm.rank)
    out["allgatherv"] = comm.allgatherv(
        np.arange(comm.rank + 1, dtype=np.int64)
    )
    out["scatter"] = comm.scatter(
        [f"item{i}" for i in range(comm.size)] if comm.rank == 0 else None
    )
    out["reduce"] = comm.reduce(np.int64(comm.rank + 1), reduction.SUM,
                                root=0)
    out["allreduce"] = comm.allreduce(np.int64(comm.rank + 1),
                                      reduction.MAX)
    out["scan"] = comm.scan(np.int64(comm.rank + 1), reduction.SUM)
    out["exscan"] = comm.exscan(np.int64(comm.rank + 1), reduction.SUM)
    out["alltoall"] = comm.alltoall(
        [comm.rank * 100 + j for j in range(comm.size)]
    )
    out["alltoallv"] = comm.alltoallv(
        [np.full(j + 1, comm.rank, dtype=np.int64)
         for j in range(comm.size)]
    )
    rs = comm.reduce_scatter(
        np.full((comm.size, 2), comm.rank + 1, dtype=np.int64),
        reduction.SUM,
    )
    out["reduce_scatter"] = rs
    comm.barrier()
    return out


def _ptp_worker(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(("ring", comm.rank), right, tag=3)
    ring = comm.recv(left, tag=3)
    swapped = comm.sendrecv(comm.rank * 2, dest=right, source=left, tag=4)
    # tag filtering: two messages to the same peer, received out of order
    comm.send("second", right, tag=20)
    comm.send("first", right, tag=10)
    first = comm.recv(left, tag=10)
    second = comm.recv(left, tag=20)
    comm.send("wild", right, tag=77)
    wild = comm.recv(left, tag=ANY_TAG)
    return ring, swapped, first, second, wild


def _nonblocking_worker(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    assert comm.iprobe(left, tag=6) is False     # nobody sends on tag 6
    req = comm.irecv(left, tag=5)
    sreq = comm.isend(comm.rank * 7, right, tag=5)
    assert sreq.done is True
    comm.barrier()                      # sends are now all delivered
    assert comm.iprobe(left, tag=5) is True
    done, value = req.test()
    assert done is True
    assert req.wait() == value
    assert comm.iprobe(left, tag=5) is False
    return value


def _split_worker(comm):
    parity = comm.rank % 2
    sub = comm.split(parity, key=-comm.rank)       # reversed rank order
    members = sub.allgather(comm.rank)
    total = sub.allreduce(np.int64(comm.rank), reduction.SUM)
    opt_out = comm.split(-1 if comm.rank == 0 else 0)
    sub_of_sub = sub.split(0)
    nested = sub_of_sub.allgather(comm.rank)
    return members, int(total), opt_out is None or opt_out.size, nested


def _mismatch_worker(comm):
    if comm.rank == 0:
        comm.barrier()
    else:
        comm.allgather(comm.rank)


def _failing_worker(comm):
    comm.barrier()
    if comm.rank == 1:
        raise RuntimeError("deliberate failure on rank 1")
    comm.barrier()
    return comm.rank


def _subcomm_abort_worker(comm, blocked_in):
    """Rank 2 fails while ranks 0-1 are parked inside a call on a
    sub-communicator (the sleep makes sure they are parked *there*, not
    still in the world communicator's split step)."""
    import time

    sub = comm.split(0)
    if comm.rank == 2:
        time.sleep(0.2)
        raise RuntimeError("boom")
    if blocked_in == "collective":
        sub.barrier()
    else:
        sub.recv(2, tag=1)


def _deadlock_worker(comm):
    comm.recv((comm.rank + 1) % comm.size, tag=99)


def _priced_worker(comm):
    comm.perf.register_bytes("table", 1000 * (comm.rank + 1))
    comm.perf.add_compute("record", 500.0 * (comm.rank + 1))
    comm.allreduce(np.int64(comm.rank), reduction.SUM)
    comm.perf.add_compute("record", 100.0)
    comm.send(np.arange(64, dtype=np.int64), (comm.rank + 1) % comm.size)
    comm.recv((comm.rank - 1) % comm.size)
    comm.perf.add_phase_time("phase-x", 0.5)
    comm.perf.mark_level("L0")
    comm.allgatherv(np.arange(comm.rank + 1, dtype=np.float64))
    return comm.perf.clock


def _timeout_echo_worker(comm):
    return resolve_timeout(None)


def _alltoall_blocks_worker(comm):
    """Empty, small, above-shm-threshold and large blocks in one ragged
    ``alltoallv``, then objects — with an own block no transport could
    carry, so it must come back without ever having been shipped."""
    rank, size = comm.rank, comm.size
    lengths = [0, 3, 5_000, 70_000]
    arrays = [np.full(lengths[(rank + j) % len(lengths)], rank * size + j,
                      dtype=np.float64) for j in range(size)]
    got = comm.alltoallv(arrays)
    objs = [{"to": j, "data": np.arange(j * 3_000) + rank}
            if (rank + j) % 2 else None for j in range(size)]
    objs[rank] = threading.Lock()
    got_objs = comm.alltoall(objs)
    own_kept = got[rank] is arrays[rank] and got_objs[rank] is objs[rank]
    got_objs[rank] = None
    # on a sub-communicator blocks are addressed by *group* rank
    sub = comm.split(rank % 2, key=-rank)
    sub_got = sub.alltoallv([np.full(2, rank * size + j, dtype=np.int64)
                             for j in range(sub.size)])
    return got, got_objs, own_kept, sub_got


def _alltoallv_vs_allreduce_worker(comm):
    if comm.rank == 0:
        comm.alltoallv([np.zeros(3)] * comm.size)
    else:
        comm.allreduce(np.int64(1), reduction.SUM)


class _ExitWhenPickled:
    """A block whose sender's process dies while putting it on the wire."""

    def __reduce__(self):
        os._exit(13)


def _death_inside_alltoall_worker(comm):
    comm.alltoallv([np.zeros(2)] * comm.size)
    block = _ExitWhenPickled() if comm.rank == 1 else 0
    comm.alltoall([block] * comm.size)


def _alltoallv_rounds_worker(comm, rounds, n):
    blocks = [np.full(n, float(comm.rank)) for _ in range(comm.size)]
    for _ in range(rounds):
        got = comm.alltoallv(blocks)
    return [float(b[0]) for b in got]


def _one_collective(comm, kind, n):
    """One call of ``kind`` on ``n``-element blocks: ``(contribution,
    result)``."""
    mine = np.full(n, float(comm.rank + 1))
    if kind == "bcast":
        return mine, comm.bcast(mine if comm.rank == 0 else None, root=0)
    if kind == "allgather":
        return mine, comm.allgather(mine)
    if kind == "allgatherv":
        return mine, comm.allgatherv(mine)
    if kind == "allreduce":
        return mine, comm.allreduce(mine, reduction.SUM)
    if kind == "exscan":
        return mine, comm.exscan(mine, reduction.SUM)
    assert kind == "fused_reduce"       # segmented: one section per root
    with comm.fused() as batch:
        parts = [batch.reduce(mine, reduction.SUM, root=root)
                 for root in range(comm.size)]
    return [mine] * comm.size, [f.result() for f in parts]


def _collective_rounds_worker(comm, kind, rounds, n):
    """``(bytes contributed, bytes delivered, digest of the last result)``
    over ``rounds`` calls; a bcast's non-roots contribute nothing."""
    up = down = 0
    for _ in range(rounds):
        mine, got = _one_collective(comm, kind, n)
        if kind != "bcast" or comm.rank == 0:
            up += payload_nbytes(mine)
        down += payload_nbytes(got)
    return up, down, payload_digest(got)


def _add(a, b):
    return a + b


def _late_operator_worker(comm, name):
    """An operator first created inside the worker — after the fork."""
    op = reduction.make_op(name, _add)
    return int(comm.allreduce(np.int64(comm.rank + 1), op))


def _bad_scatter_worker(comm):
    big = np.zeros(40_000)                  # leases in flight at the abort
    comm.allreduce(big, reduction.SUM)
    comm.scatter([big] if comm.rank == 0 else None, root=0)


# ----------------------------------------------------------------------
# the contract
# ----------------------------------------------------------------------


def test_collectives(backend):
    size = 4
    results = run_spmd(size, _collectives_worker, backend=backend)
    ranks = list(range(size))
    for rank, out in enumerate(results):
        assert out["bcast"] == "payload"
        assert out["gather"] == ([r * 10 for r in ranks] if rank == 0
                                 else None)
        assert out["allgather"] == ranks
        np.testing.assert_array_equal(
            out["allgatherv"],
            np.concatenate([np.arange(r + 1) for r in ranks]),
        )
        assert out["scatter"] == f"item{rank}"
        expected_sum = sum(r + 1 for r in ranks)
        assert (out["reduce"] == expected_sum if rank == 0
                else out["reduce"] is None)
        assert out["allreduce"] == size
        assert out["scan"] == sum(r + 1 for r in ranks[: rank + 1])
        assert out["exscan"] == sum(r + 1 for r in ranks[:rank])
        assert out["alltoall"] == [i * 100 + rank for i in ranks]
        assert [a.tolist() for a in out["alltoallv"]] == [
            [i] * (rank + 1) for i in ranks
        ]
        np.testing.assert_array_equal(
            out["reduce_scatter"], np.full(2, expected_sum)
        )


def test_point_to_point(backend):
    size = 4
    results = run_spmd(size, _ptp_worker, backend=backend)
    for rank, (ring, swapped, first, second, wild) in enumerate(results):
        left = (rank - 1) % size
        assert ring == ("ring", left)
        assert swapped == left * 2
        assert first == "first" and second == "second"
        assert wild == "wild"


def test_nonblocking_requests(backend):
    size = 3
    results = run_spmd(size, _nonblocking_worker, backend=backend)
    for rank, value in enumerate(results):
        assert value == ((rank - 1) % size) * 7


def test_split(backend):
    size = 6
    results = run_spmd(size, _split_worker, backend=backend)
    for rank, (members, total, opt_out, nested) in enumerate(results):
        same_parity = [r for r in range(size) if r % 2 == rank % 2]
        # key=-rank reverses the ordering inside each sub-communicator
        assert members == sorted(same_parity, reverse=True)
        assert total == sum(same_parity)
        assert opt_out is True if rank == 0 else opt_out == size - 1
        assert nested == sorted(same_parity, reverse=True)


def test_mismatch_detected(backend):
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, _mismatch_worker, backend=backend)
    failures = exc_info.value.failures
    kinds = {type(e) for e in failures.values()}
    assert CollectiveMismatchError in kinds
    assert kinds <= {CollectiveMismatchError, CollectiveAbortedError}
    # the wording comes from the one group core, whatever the engine;
    # which of the two calls counts as the offender is up to scheduling
    texts = {str(e) for e in failures.values()
             if isinstance(e, CollectiveMismatchError)}
    assert len(texts) == 1
    assert texts <= {
        "rank 0 called 'barrier' while peers are in 'allgather'",
        "rank 1 called 'allgather' while peers are in 'barrier'",
        "rank 2 called 'allgather' while peers are in 'barrier'",
    }


def test_worker_failure_aborts_job(backend):
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, _failing_worker, backend=backend, timeout=30.0)
    err = exc_info.value
    # the root cause is reported, not the secondary aborts
    assert set(err.failures) == {1}
    assert isinstance(err.failures[1], RuntimeError)
    assert "deliberate failure on rank 1" in str(err)


@pytest.mark.parametrize("blocked_in", ["collective", "recv"])
def test_failure_releases_peers_blocked_on_subcommunicator(backend,
                                                           blocked_in):
    """An abort is job-wide: it releases ranks blocked on *any*
    communicator of the job at once, not after the wait timeout."""
    import time

    start = time.monotonic()
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, _subcomm_abort_worker, args=(blocked_in,),
                 backend=backend, timeout=30.0)
    assert time.monotonic() - start < 5.0
    err = exc_info.value
    assert set(err.failures) == {2}
    assert isinstance(err.failures[2], RuntimeError)


def test_traceback_preserved(backend):
    """The originating rank's formatted traceback survives the engine
    boundary — including the process boundary."""
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, _failing_worker, backend=backend, timeout=30.0)
    err = exc_info.value
    assert 1 in err.tracebacks
    tb = err.tracebacks[1]
    assert "_failing_worker" in tb
    assert "deliberate failure on rank 1" in tb
    # the headline message carries the first failing rank's traceback
    assert "--- rank 1 traceback ---" in str(err)


def test_deadlock_aborts(backend):
    """A stuck job aborts: structurally (cooperative) or via timeout."""
    kwargs = {} if get_engine(backend).detects_deadlock else \
        {"timeout": 0.5}
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, _deadlock_worker, backend=backend, **kwargs)
    kinds = {type(e) for e in exc_info.value.failures.values()}
    assert kinds == {CollectiveAbortedError}


def test_timeout_env_override(backend, monkeypatch):
    monkeypatch.setenv(TIMEOUT_ENV, "17.5")
    assert run_spmd(2, _timeout_echo_worker, backend=backend) == [17.5, 17.5]
    monkeypatch.delenv(TIMEOUT_ENV)
    assert run_spmd(
        2, _timeout_echo_worker, backend=backend
    ) == [DEFAULT_TIMEOUT] * 2


def test_backend_env_selects_engine(backend, monkeypatch):
    monkeypatch.setenv("REPRO_SPMD_BACKEND", backend)
    assert run_spmd(2, _timeout_echo_worker) == [DEFAULT_TIMEOUT] * 2


def test_perf_model_identical_across_backends(backend):
    """The priced simulation is deterministic and engine-independent:
    every backend must produce bit-identical clocks, traffic and memory."""
    size = 4
    perf = PerfRun(size, CRAY_T3D)
    run_spmd(size, _priced_worker, backend=backend,
             observer=perf, rank_perf=perf.trackers)
    reference = PerfRun(size, CRAY_T3D)
    run_spmd(size, _priced_worker, backend="thread",
             observer=reference, rank_perf=reference.trackers)
    for t, ref in zip(perf.trackers, reference.trackers):
        assert t.clock == ref.clock
        assert t.comp_seconds == ref.comp_seconds
        assert t.comm_seconds == ref.comm_seconds
        assert t.bytes_sent == ref.bytes_sent
        assert t.bytes_recv == ref.bytes_recv
        assert t.n_collectives == ref.n_collectives
        assert t.n_ptp == ref.n_ptp
        assert t.collective_counts == ref.collective_counts
        assert t.collective_bytes == ref.collective_bytes
        assert t.compute_units == ref.compute_units
        assert t.phase_seconds == ref.phase_seconds
        assert t.memory_watermark == ref.memory_watermark
        assert t.level_marks == ref.level_marks


def test_induction_identical_across_backends(backend, tiny_quest):
    """Acceptance bar: ScalParC induces a structurally identical tree and
    identical priced stats on every backend."""
    perf = PerfRun(4, CRAY_T3D)
    trees = run_spmd(4, induce_worker,
                     args=(tiny_quest, InductionConfig()),
                     observer=perf, rank_perf=perf.trackers,
                     backend=backend)
    ref_perf = PerfRun(4, CRAY_T3D)
    ref_trees = run_spmd(4, induce_worker,
                         args=(tiny_quest, InductionConfig()),
                         observer=ref_perf, rank_perf=ref_perf.trackers,
                         backend="thread")
    assert_trees_equal(trees[0], ref_trees[0],
                       context=f"({backend} vs thread)")
    assert perf.stats().parallel_time == ref_perf.stats().parallel_time
    assert perf.stats().memory_per_rank_max == \
        ref_perf.stats().memory_per_rank_max


# ----------------------------------------------------------------------
# all-to-all: blocks change hands once, the own block not at all
# ----------------------------------------------------------------------


def test_alltoall_blocks_match_the_thread_engine(backend):
    size = 3
    results = run_spmd(size, _alltoall_blocks_worker, backend=backend)
    reference = run_spmd(size, _alltoall_blocks_worker, backend="thread")
    for got, want in zip(results, reference):
        # content, dtype and shape of every block, however nested
        assert payload_digest(got) == payload_digest(want)
        assert got[2], "own block did not come back as the caller's object"


def test_alltoallv_against_allreduce_is_a_mismatch_on_both(backend):
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, _alltoallv_vs_allreduce_worker, backend=backend)
    kinds = {rank: type(exc)
             for rank, exc in exc_info.value.failures.items()}
    assert CollectiveMismatchError in kinds.values()
    if backend in ("process", "tcp"):
        # the router answers the offender and the parked rank alike; an
        # in-process peer may be released by the offender's abort first
        assert kinds == {0: CollectiveMismatchError,
                         1: CollectiveMismatchError}


def test_rank_death_inside_alltoall_releases_peers(backend):
    if backend not in ("process", "tcp"):
        pytest.skip("an in-process rank would take the test run with it")
    start = time.monotonic()
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, _death_inside_alltoall_worker, backend=backend,
                 timeout=30.0)
    assert time.monotonic() - start < 10.0
    failures = exc_info.value.failures
    assert isinstance(failures[1], WorkerCrashError)
    for rank in (0, 2):
        assert isinstance(failures[rank], CollectiveAbortedError)
        assert failures[rank].origin_rank == 1


def test_alltoallv_block_crosses_the_transport_once(backend):
    """A block is handed over by its sender and taken by its receiver —
    nobody else reads it on the way, and the own block never leaves."""
    size, rounds, n = 2, 5, 32_768
    perf = PerfRun(size, CRAY_T3D)
    results = run_spmd(size, _alltoallv_rounds_worker, args=(rounds, n),
                       backend=backend, observer=perf,
                       rank_perf=perf.trackers)
    assert results == [[0.0, 1.0]] * size
    stats = perf.stats()
    moved = stats.transport_pickled_bytes + stats.transport_shared_bytes
    away = size * (size - 1) * rounds * n * 8
    assert stats.total_bytes == away
    if backend in ("process", "tcp"):
        assert 2 * away <= moved <= 2.1 * away
    else:
        assert moved == 0


@pytest.mark.parametrize("kind", ["bcast", "allgather", "allgatherv",
                                  "allreduce", "exscan", "fused_reduce"])
def test_collective_crosses_the_transport_once(backend, kind, monkeypatch):
    """Two hops for every kind: each contribution goes up once, each
    result comes down once — the router finishes the step itself and
    never asks a rank to (a detour through one doubles the bytes)."""
    replies = set()
    reply = _Router._reply

    def spy(self, rank, msg):
        replies.add(msg[0])
        reply(self, rank, msg)

    monkeypatch.setattr(_Router, "_reply", spy)
    size, rounds, n = 2, 5, 32_768
    perf = PerfRun(size, CRAY_T3D)
    results = run_spmd(size, _collective_rounds_worker,
                       args=(kind, rounds, n), backend=backend,
                       observer=perf, rank_perf=perf.trackers)
    reference = run_spmd(size, _collective_rounds_worker,
                         args=(kind, rounds, n), backend="thread")
    assert results == reference
    stats = perf.stats()
    moved = stats.transport_pickled_bytes + stats.transport_shared_bytes
    up = sum(r[0] for r in results)
    down = sum(r[1] for r in results)
    if backend in ("process", "tcp"):
        assert up + down <= moved <= 2.1 * max(up, down)
        assert replies == {"result"}
    else:
        assert moved == 0 and not replies


def test_operator_created_after_the_fork_fails_typed(backend):
    """Operators are resolved by name where the step is finished; one
    the finishing process has never seen is a typed abort on every rank,
    not a hang and not a ``KeyError`` inside the router."""
    name = f"late_sum_{backend}"
    if backend not in ("process", "tcp"):   # one registry, shared
        assert run_spmd(3, _late_operator_worker, args=(name,),
                        backend=backend) == [6, 6, 6]
        return
    start = time.monotonic()
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, _late_operator_worker, args=(name,), backend=backend,
                 timeout=30.0)
    assert time.monotonic() - start < 10.0
    failures = exc_info.value.failures
    assert set(failures) == {0, 1, 2}
    for exc in failures.values():
        assert isinstance(exc, CollectiveAbortedError)
        assert repr(name) in str(exc) and "import time" in str(exc)


def test_failing_finish_is_a_job_wide_typed_abort(backend):
    """A ``finish`` that raises — here a scatter root with the wrong item
    count — aborts every rank with the same typed error, its origin and
    the traceback of where it was raised; no shm lease outlives it."""
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, _bad_scatter_worker, backend=backend, timeout=30.0)
    failures = exc_info.value.failures
    assert set(failures) == {0, 1, 2}
    assert len({str(exc) for exc in failures.values()}) == 1
    assert len({exc.origin_rank for exc in failures.values()}) == 1
    for exc in failures.values():
        assert isinstance(exc, CollectiveAbortedError)
        assert "'scatter(root=0)' failed when rank" in str(exc)
        assert "ValueError: scatter root must supply exactly 3" in str(exc)
    tracebacks = exc_info.value.tracebacks
    assert set(tracebacks) == {0, 1, 2}
    assert all("in _scatter" in tb for tb in tracebacks.values())
    if backend == "process":
        segments = ProcessEngine.last_shm_segments
        assert any("r-1s" in name for name in segments)   # the router's
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

"""Engine-conformance suite: every backend must implement the identical
Communicator contract.

Each test is parametrized over ``available_backends()`` so a newly
registered engine is automatically held to the same bar: collectives,
blocking point-to-point, mismatch detection, abort semantics with
preserved tracebacks, deadlock and timeout reports, ledger accounting,
perf-model fidelity, and end-to-end induction equivalence.
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
from repro.core.phases import timed_phase
from repro.perfmodel import CRAY_T3D, RankTracker, price, replay
from repro.runtime import (
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
    out["allgather"] = comm.allgather(comm.rank)
    out["allgatherv"] = comm.allgatherv(
        np.arange(comm.rank + 1, dtype=np.int64)
    )
    out["reduce"] = comm.reduce(np.int64(comm.rank + 1), reduction.SUM,
                                root=0)
    out["allreduce"] = comm.allreduce(np.int64(comm.rank + 1),
                                      reduction.MAX)
    out["exscan"] = comm.exscan(np.int64(comm.rank + 1), reduction.SUM)
    out["alltoall"] = comm.alltoall(
        [comm.rank * 100 + j for j in range(comm.size)]
    )
    out["alltoallv"] = comm.alltoallv(
        [np.full(j + 1, comm.rank, dtype=np.int64)
         for j in range(comm.size)]
    )
    comm.barrier()
    return out


def _ptp_worker(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(("ring", comm.rank), right, tag=3)
    ring = comm.recv(left, tag=3)
    # tag filtering: two messages to the same peer, received out of order
    comm.send("second", right, tag=20)
    comm.send("first", right, tag=10)
    first = comm.recv(left, tag=10)
    second = comm.recv(left, tag=20)
    return ring, first, second


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


def _blocked_peers_worker(comm, blocked_in):
    """Rank 2 fails while ranks 0-1 are parked inside a call (the sleep
    makes sure they are parked by then)."""
    if comm.rank == 2:
        time.sleep(0.2)
        raise RuntimeError("boom")
    if blocked_in == "collective":
        comm.barrier()
    else:
        comm.recv(2, tag=1)


def _deadlock_worker(comm):
    comm.recv((comm.rank + 1) % comm.size, tag=99)


def _stuck_in_two_calls_worker(comm):
    if comm.rank == 0:
        comm.allreduce(np.int64(1), reduction.SUM)
    else:
        comm.recv(0, tag=3)


def _priced_worker(comm):
    comm.perf.register_bytes("table", 1000 * (comm.rank + 1))
    comm.perf.add_compute("record", 500.0 * (comm.rank + 1))
    with timed_phase(comm, "phase-x"):
        comm.allreduce(np.int64(comm.rank), reduction.SUM)
        comm.perf.add_compute("record", 100.0)
        comm.send(np.arange(64, dtype=np.int64), (comm.rank + 1) % comm.size)
        comm.recv((comm.rank - 1) % comm.size)
    comm.perf.mark_level("L0")
    comm.allgatherv(np.arange(comm.rank + 1, dtype=np.float64))


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
    return got, got_objs, own_kept


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
    over ``rounds`` calls."""
    up = down = 0
    for _ in range(rounds):
        mine, got = _one_collective(comm, kind, n)
        up += payload_nbytes(mine)
        down += payload_nbytes(got)
    return up, down, payload_digest(got)


def _add(a, b):
    return a + b


def _late_operator_worker(comm, name):
    """An operator first created inside the worker — after the fork."""
    op = reduction.make_op(name, _add)
    return int(comm.allreduce(np.int64(comm.rank + 1), op))


def _misshaped_allreduce_worker(comm):
    big = np.zeros(40_000)                  # leases in flight at the abort
    comm.allreduce(big, reduction.SUM)
    comm.allreduce(np.zeros(40_000 + (comm.rank == 1)), reduction.SUM)


# ----------------------------------------------------------------------
# the contract
# ----------------------------------------------------------------------


def check_collectives(results):
    """Assert what :func:`_collectives_worker` returns on every rank."""
    size = len(results)
    ranks = list(range(size))
    for rank, out in enumerate(results):
        assert out["allgather"] == ranks
        np.testing.assert_array_equal(
            out["allgatherv"],
            np.concatenate([np.arange(r + 1) for r in ranks]),
        )
        expected_sum = sum(r + 1 for r in ranks)
        assert (out["reduce"] == expected_sum if rank == 0
                else out["reduce"] is None)
        assert out["allreduce"] == size
        assert out["exscan"] == sum(r + 1 for r in ranks[:rank])
        assert out["alltoall"] == [i * 100 + rank for i in ranks]
        assert [a.tolist() for a in out["alltoallv"]] == [
            [i] * (rank + 1) for i in ranks
        ]


def test_collectives(backend):
    check_collectives(run_spmd(4, _collectives_worker, backend=backend))


def test_point_to_point(backend):
    size = 4
    results = run_spmd(size, _ptp_worker, backend=backend)
    for rank, (ring, first, second) in enumerate(results):
        left = (rank - 1) % size
        assert ring == ("ring", left)
        assert first == "first" and second == "second"


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
def test_failure_releases_blocked_peers_at_once(backend, blocked_in):
    """An abort is job-wide: it releases ranks blocked in a collective
    or a receive at once, not after the wait timeout."""
    start = time.monotonic()
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, _blocked_peers_worker, args=(blocked_in,),
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
    """A stuck job aborts: structurally where the engine can see every
    rank parked (``thread``), else via the wait timeout.  Either way the
    report names each stuck call in the same words; the timeout names
    the ranks whose wait expired, the structural check every rank."""
    structural = get_engine(backend).detects_deadlock
    kwargs = {} if structural else {"timeout": 0.5}
    for worker, stuck in [
        (_deadlock_worker, ["rank 0 in recv(source=1, tag=99)",
                            "rank 1 in recv(source=0, tag=99)"]),
        (_stuck_in_two_calls_worker,
         ["rank 0 in collective 'allreduce(op=sum)' (1/2 ranks arrived)",
          "rank 1 in recv(source=0, tag=3)"]),
    ]:
        with pytest.raises(SpmdWorkerError) as exc_info:
            run_spmd(2, worker, backend=backend, **kwargs)
        failures = exc_info.value.failures
        assert {type(e) for e in failures.values()} == \
            {CollectiveAbortedError}
        for exc in failures.values():
            named = str(exc).split(": ", 1)[1].split("; ")
            assert named == stuck if structural else set(named) <= set(stuck)


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
    every backend books the same ledger rows, so the replay gives
    bit-identical clocks, traffic and memory."""
    size = 4
    ledgers = [RankTracker() for _ in range(size)]
    run_spmd(size, _priced_worker, backend=backend, rank_perf=ledgers)
    reference = [RankTracker() for _ in range(size)]
    run_spmd(size, _priced_worker, backend="thread", rank_perf=reference)
    assert [t.rows for t in ledgers] == [t.rows for t in reference]
    for t, ref in zip(replay(ledgers, CRAY_T3D),
                      replay(reference, CRAY_T3D)):
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
        assert t.clocks == ref.clocks
        assert t.phase_seconds["phase-x"] > 0


def test_induction_identical_across_backends(backend, tiny_quest):
    """Acceptance bar: ScalParC induces a structurally identical tree and
    identical priced stats on every backend."""
    ledgers = [RankTracker() for _ in range(4)]
    trees = run_spmd(4, induce_worker,
                     args=(tiny_quest, InductionConfig()),
                     rank_perf=ledgers, backend=backend)
    reference = [RankTracker() for _ in range(4)]
    ref_trees = run_spmd(4, induce_worker,
                         args=(tiny_quest, InductionConfig()),
                         rank_perf=reference, backend="thread")
    assert_trees_equal(trees[0], ref_trees[0],
                       context=f"({backend} vs thread)")
    stats, ref_stats = price(ledgers, CRAY_T3D), price(reference, CRAY_T3D)
    assert stats.parallel_time == ref_stats.parallel_time
    assert stats.memory_per_rank_max == ref_stats.memory_per_rank_max


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
    ledgers = [RankTracker() for _ in range(size)]
    results = run_spmd(size, _alltoallv_rounds_worker, args=(rounds, n),
                       backend=backend, rank_perf=ledgers)
    assert results == [[0.0, 1.0]] * size
    stats = price(ledgers, CRAY_T3D)
    moved = stats.transport_pickled_bytes + stats.transport_shared_bytes
    away = size * (size - 1) * rounds * n * 8
    assert stats.total_bytes == away
    if backend in ("process", "tcp"):
        assert 2 * away <= moved <= 2.1 * away
    else:
        assert moved == 0


@pytest.mark.parametrize("kind", ["allgather", "allgatherv", "allreduce",
                                  "exscan", "fused_reduce"])
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
    ledgers = [RankTracker() for _ in range(size)]
    results = run_spmd(size, _collective_rounds_worker,
                       args=(kind, rounds, n), backend=backend,
                       rank_perf=ledgers)
    reference = run_spmd(size, _collective_rounds_worker,
                         args=(kind, rounds, n), backend="thread")
    assert results == reference
    stats = price(ledgers, CRAY_T3D)
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
    """A ``finish`` that raises — here an allreduce over contributions of
    different lengths — aborts every rank with the same typed error, its
    origin and the traceback of where it was raised; no shm lease
    outlives it."""
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, _misshaped_allreduce_worker, backend=backend,
                 timeout=30.0)
    failures = exc_info.value.failures
    assert set(failures) == {0, 1, 2}
    assert len({str(exc) for exc in failures.values()}) == 1
    assert len({exc.origin_rank for exc in failures.values()}) == 1
    for exc in failures.values():
        assert isinstance(exc, CollectiveAbortedError)
        assert "'allreduce(op=sum)' failed when rank" in str(exc)
        assert "ValueError: operands could not be broadcast" in str(exc)
    tracebacks = exc_info.value.tracebacks
    assert set(tracebacks) == {0, 1, 2}
    assert all("in _allreduce" in tb for tb in tracebacks.values())
    if backend == "process":
        segments = ProcessEngine.last_shm_segments
        assert any("r-1s" in name for name in segments)   # the router's
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

"""``SelfCommunicator``: a world of one, run in place.

It is what a rank grows its own subtrees on after ScalParC's hand-off, so
it must be the thread engine at p = 1 in everything but cost: the same
result of every collective kind (hence the same bytes a caller hands over
and gets back), nothing over a transport, nothing in a trace — with the
rank's own tracker still collecting compute and phase time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.phases import timed_phase
from repro.perfmodel import CRAY_T3D, RankTracker, replay
from repro.runtime import (
    CollectiveAbortedError,
    SelfCommunicator,
    TraceCollector,
    payload_nbytes,
    reduction,
    run_spmd,
)
from repro.runtime.tracing.events import payload_digest

KINDS = ["barrier", "allgather", "allgatherv", "reduce", "allreduce",
         "exscan", "alltoall", "alltoallv", "fused_reduce", "fused_allreduce",
         "fused_exscan"]


def _one_collective(comm, kind, n):
    """One call of ``kind`` on ``n``-element blocks: ``(contribution,
    result)`` (the pattern of the engine-conformance hop-count test)."""
    mine = np.full(n, float(comm.rank + 1))
    if kind == "barrier":
        return None, comm.barrier()
    if kind in ("allgather", "allgatherv"):
        return mine, getattr(comm, kind)(mine)
    if kind in ("reduce", "allreduce", "exscan"):
        call = getattr(comm, kind)
        return mine, (call(mine, reduction.SUM, root=0) if kind == "reduce"
                      else call(mine, reduction.SUM))
    if kind in ("alltoall", "alltoallv"):
        blocks = [mine] * comm.size
        return blocks, getattr(comm, kind)(blocks)
    with comm.fused() as batch:                     # the fused kinds
        op = kind.removeprefix("fused_")
        future = (batch.reduce(mine, reduction.SUM, root=0) if op == "reduce"
                  else getattr(batch, op)(mine, reduction.SUM))
    return mine, future.result()


def _rounds(comm, kind, rounds=3, n=4_096):
    """``(bytes handed over, bytes handed back, digest of the last
    result)`` over ``rounds`` calls."""
    up = down = 0
    for _ in range(rounds):
        mine, got = _one_collective(comm, kind, n)
        up += payload_nbytes(mine)
        down += payload_nbytes(got)
    return up, down, payload_digest(got)


@pytest.mark.parametrize("kind", KINDS)
def test_every_collective_equals_the_thread_engine_at_p1(kind):
    tracker = RankTracker()
    mine = _rounds(SelfCommunicator(tracker), kind)
    (reference,) = run_spmd(1, _rounds, args=(kind,), backend="thread")
    assert mine == reference
    # nothing crossed a transport, nothing was priced as communication
    assert tracker.transport_pickled_bytes == 0
    (priced,) = replay([tracker], CRAY_T3D)
    assert priced.n_collectives == 0 and priced.comm_seconds == 0.0


def test_local_phase_books_compute_rows_and_no_collective_rows():
    """A local phase (the hand-off's subtrees) lands on the rank's ledger
    as compute, memory and phase rows only — so ranks that grew different
    subtrees still agree on every collective the replay aligns."""
    tracker = RankTracker()
    local = SelfCommunicator(tracker)
    with timed_phase(local, "local"):
        for kind in KINDS:
            local.perf.add_compute("scan", 100)
            _one_collective(local, kind, 64)
    kinds = {row[0] for row in tracker.rows}
    assert "compute" in kinds and "phase" in kinds
    assert "collective" not in kinds
    (priced,) = replay([tracker], CRAY_T3D)
    assert priced.compute_units["scan"] == 100 * len(KINDS)
    assert priced.phase_seconds["local"] == priced.comp_seconds


def _traced_job(comm):
    """Two collectives on the world, a busy world of one in between."""
    comm.barrier()
    local = SelfCommunicator(comm.perf)
    for kind in KINDS:
        _one_collective(local, kind, 64)
    comm.perf.add_compute("scan", 1_000)
    comm.barrier()


def test_records_no_trace_events_and_charges_the_ranks_tracker():
    collector = TraceCollector()
    ledgers = [RankTracker() for _ in range(2)]
    run_spmd(2, _traced_job, backend="thread", trace=collector,
             rank_perf=ledgers)
    for rank, tracker in enumerate(replay(ledgers, CRAY_T3D)):
        assert [ev.kind for ev in collector.events_of(rank)] == \
            ["barrier", "barrier"]
        assert tracker.n_collectives == 2
        assert tracker.compute_units["scan"] == 1_000


def test_point_to_point_is_a_fifo_to_oneself():
    comm = SelfCommunicator()
    comm.send("a", 0, tag=1)
    comm.send("b", 0, tag=2)
    comm.send("c", 0, tag=1)
    comm.send("d", 0, tag=1)
    assert comm.recv(0, tag=2) == "b"
    assert comm.recv(0, tag=1) == "a"
    assert comm.recv(0, tag=1) == "c"
    assert comm.recv(0, tag=1) == "d"
    with pytest.raises(CollectiveAbortedError, match="nothing was sent"):
        comm.recv(0)

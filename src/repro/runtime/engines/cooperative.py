"""The ``cooperative`` backend: deterministic coroutine-style scheduling.

All ranks of the job are multiplexed by a single round-robin scheduler
with **exactly one rank runnable at any instant**.  A rank runs until it
*blocks* — an incomplete collective or an unmatched ``recv`` — then the
scheduler hands control to the next runnable rank in deterministic
round-robin order.  The last rank arriving at a collective finishes the
step inline and releases every waiter, so a p-rank collective costs
exactly p−1 targeted handoffs: no condition-variable thundering herd, no
lock contention, and no timed waits at all.

Because the scheduler knows precisely which ranks are blocked and why, a
deadlock (every live rank blocked with nothing pending) is detected
*structurally and instantly* — the job aborts with a message naming each
blocked rank and the call it is stuck in, instead of burning a 120 s
timeout like the thread backend.

Implementation note: CPython cannot suspend an ordinary synchronous call
stack from the outside (no first-class stack switching without the
optional ``greenlet`` extension), so each rank's stack is hosted on a
*parked carrier thread*.  The carriers are scheduling vehicles only: at
most one is ever awake, every handoff is an explicit semaphore transfer,
and no engine state is ever accessed concurrently — semantically this is
single-threaded cooperative multitasking, and results (including
scheduling order) are fully deterministic.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Sequence

from ..collective import Collective
from ..communicator import Communicator
from ..errors import CollectiveAbortedError, CollectiveMismatchError
from ..payload import payload_nbytes
from ..tracing import TraceRecorder
from .base import SpmdEngine
from .group import Group, abort_error, raise_failures, run_worker

__all__ = ["CooperativeEngine", "CooperativeCommunicator"]

# rank lifecycle states
_RUNNABLE, _RUNNING, _BLOCKED, _FINISHED = range(4)


class _RankState:
    """Scheduling state of one global rank."""

    __slots__ = ("sem", "status", "wake_value", "wake_exc", "where",
                 "recv_wait")

    def __init__(self):
        self.sem = threading.Semaphore(0)
        self.status = _RUNNABLE
        self.wake_value: Any = None
        self.wake_exc: BaseException | None = None
        self.where = ""
        # (group, source, tag) while parked in a blocking recv
        self.recv_wait: tuple | None = None


class _Scheduler:
    """One cooperative SPMD job: owns all rank/group state.

    Invariant: at most one rank executes at any time, and engine state is
    only ever touched by the active rank or by the scheduler loop while
    every rank is parked — hence no locking anywhere below.
    """

    def __init__(self, size: int, observer: Any | None):
        self.size = size
        self.states = [_RankState() for _ in range(size)]
        self.runq: deque[int] = deque(range(size))
        self.sched_sem = threading.Semaphore(0)
        self.root = Group(list(range(size)))
        self.observer = observer        # prices the root group only
        self.error: CollectiveAbortedError | None = None
        self.results: list = [None] * size
        self.failures: dict[int, BaseException] = {}
        self.tracebacks: dict[int, str] = {}
        self.finished = 0

    # -- rank-side primitives (called from the active rank's stack) -----

    def _handoff(self) -> None:
        """Pass the single-runnable baton to the next queued rank, or to
        the supervisor loop when nothing is runnable (deadlock or done).

        The direct carrier-to-carrier transfer is the engine's hot path:
        one semaphore release per suspension, no round-trip through a
        central scheduler thread.
        """
        while self.runq:
            nxt = self.runq.popleft()
            if self.states[nxt].status == _RUNNABLE:
                self.states[nxt].sem.release()
                return
        self.sched_sem.release()

    def block(self, grank: int, where: str) -> Any:
        """Park the calling rank until woken; returns the wake value or
        raises the wake exception."""
        st = self.states[grank]
        st.status = _BLOCKED
        st.where = where
        self._handoff()
        st.sem.acquire()                # park until scheduled again
        st.status = _RUNNING
        if st.wake_exc is not None:
            exc = st.wake_exc
            st.wake_exc = None
            raise exc
        value = st.wake_value
        st.wake_value = None
        return value

    def wake(self, grank: int, value: Any = None,
             exc: BaseException | None = None) -> None:
        """Mark a parked rank runnable with a result (or an exception)."""
        st = self.states[grank]
        st.wake_value = value
        st.wake_exc = exc
        st.recv_wait = None
        st.status = _RUNNABLE
        self.runq.append(grank)

    def abort(self, err: CollectiveAbortedError) -> None:
        """The job failed (first error wins): release every parked rank,
        whichever communicator it is blocked on."""
        if self.error is None:
            self.error = err
        for g, st in enumerate(self.states):
            if st.status == _BLOCKED:
                self.wake(g, exc=self.error)

    # -- the supervisor loop (runs on the caller's thread) --------------

    def _rank_main(self, grank: int, worker, args, kwargs,
                   comm: "CooperativeCommunicator") -> None:
        st = self.states[grank]
        st.sem.acquire()                # wait for the first schedule
        st.status = _RUNNING
        kind, value, tb = run_worker(worker, comm, args, kwargs)
        if kind == "done":
            self.results[grank] = value
        else:
            self.failures[grank] = value
            self.tracebacks[grank] = tb
            if kind == "error":
                self.abort(abort_error(grank, value))
        st.status = _FINISHED
        self.finished += 1
        self._handoff()

    def run(self, worker, args, kwargs,
            comms: list["CooperativeCommunicator"]) -> None:
        carriers = [
            threading.Thread(
                target=self._rank_main,
                args=(g, worker, args, kwargs, comms[g]),
                name=f"spmd-coop-rank-{g}", daemon=True,
            )
            for g in range(self.size)
        ]
        for t in carriers:
            t.start()
        self._handoff()                 # give rank 0 the baton
        while True:
            # carriers pass the baton among themselves; the supervisor is
            # only woken when nothing is runnable — either the job is
            # done, or every live rank is parked (structural deadlock)
            self.sched_sem.acquire()
            if self.finished >= self.size:
                break
            blocked = [g for g, st in enumerate(self.states)
                       if st.status == _BLOCKED]
            if not blocked:             # defensive; cannot happen
                continue
            detail = "; ".join(
                f"rank {g} in {self.states[g].where}" for g in blocked
            )
            self.abort(CollectiveAbortedError(f"deadlock detected: {detail}"))
            self._handoff()
        for t in carriers:
            t.join()


class CooperativeCommunicator(Communicator):
    """Per-rank communicator handle backed by the cooperative scheduler."""

    def __init__(self, sched: _Scheduler, group: Group, rank: int,
                 perf: Any | None = None):
        super().__init__(rank, group.size, perf=perf)
        self._sched = sched
        self._group = group
        #: this rank's global id (group rank == global rank only pre-split)
        self._grank = group.members[rank]
        #: sub-communicator traffic is not priced
        self._observer = sched.observer if group is sched.root else None

    # -- engine primitives ---------------------------------------------

    def _exchange_impl(self, spec, payload):
        sched, grp = self._sched, self._group
        op = spec.name
        if sched.error is not None:
            raise sched.error
        try:
            last = grp.arrive(self.rank, op, payload)
        except CollectiveMismatchError as exc:
            for r in grp.take_step()[2]:        # the parked peers raise too
                sched.wake(grp.members[r], exc=exc)
            raise
        if not last:
            return sched.block(
                self._grank,
                f"collective {op!r} "
                f"({len(grp.arrived)}/{grp.size} ranks arrived)",
            )
        # last arriving rank: execute the step inline
        waiting = grp.arrived[:-1]
        observer = self._observer
        try:
            results, sent, recv = grp.finish_step(
                self.rank, spec, priced=observer is not None)
        except CollectiveAbortedError as err:
            sched.abort(err)
            raise
        if observer is not None:
            observer.on_collective(op, sent, recv, grp.size)
        for r in waiting:
            sched.wake(grp.members[r], value=results[r])
        return results[self.rank]

    # -- point-to-point -------------------------------------------------

    def _match(self, rank: int, source: int, tag: int, *,
               pop: bool) -> tuple[bool, Any]:
        """Look in group rank ``rank``'s mailbox, pricing a delivery."""
        found, payload = self._group.match(rank, source, tag, pop=pop)
        if found and pop and self._observer is not None:
            self._observer.on_ptp(source, rank, payload_nbytes(payload))
        return found, payload

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest, "dest")
        sched, grp = self._sched, self._group
        if sched.error is not None:
            raise sched.error
        grp.post(self.rank, dest, tag, obj)
        # hand the message straight to a receiver parked waiting for it
        dest_g = grp.members[dest]
        wait = sched.states[dest_g].recv_wait
        if wait is not None and wait[0] is grp:
            found, payload = self._match(dest, wait[1], wait[2], pop=True)
            if found:
                sched.wake(dest_g, value=payload)

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_peer(source, "source")
        found, payload = self._try_recv(source, tag)
        if found:
            return payload
        self._sched.states[self._grank].recv_wait = (self._group, source, tag)
        return self._sched.block(
            self._grank, f"recv(source={source}, tag={tag})"
        )

    def _try_recv(self, source: int, tag: int) -> tuple[bool, Any]:
        if self._sched.error is not None:
            raise self._sched.error
        return self._match(self.rank, source, tag, pop=True)

    def _probe(self, source: int, tag: int) -> bool:
        if self._sched.error is not None:
            raise self._sched.error
        return self._match(self.rank, source, tag, pop=False)[0]

    # -- sub-communicators ----------------------------------------------

    def split(self, color: int, key: int | None = None) \
            -> "CooperativeCommunicator | None":
        """MPI_Comm_split (see :meth:`Communicator.split`)."""
        plan = self._exchange(
            Collective("split"),
            (color, key if key is not None else self.rank))
        if plan is None:
            return None
        group, new_rank = plan
        return CooperativeCommunicator(self._sched, group, new_rank,
                                       perf=self.perf)


class CooperativeEngine(SpmdEngine):
    """Runs ranks under a deterministic cooperative scheduler."""

    name = "cooperative"
    detects_deadlock = True

    def run(
        self,
        size: int,
        worker: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict | None = None,
        *,
        observer: Any | None = None,
        rank_perf: Sequence[Any] | None = None,
        timeout: float | None = None,   # unused: deadlocks are structural
        trace: Any | None = None,
        checkpoint: Any | None = None,  # write path only; no retry
    ) -> list:
        kwargs = kwargs or {}

        sched = _Scheduler(size, observer)
        comms = [
            CooperativeCommunicator(
                sched, sched.root, r,
                perf=rank_perf[r] if rank_perf is not None else None,
            )
            for r in range(size)
        ]
        if trace is not None:
            trace.begin(size, backend="cooperative")
            for comm in comms:
                comm._tracer = TraceRecorder(comm.rank, size)
        sched.run(worker, args, kwargs, comms)
        if trace is not None:
            for comm in comms:
                trace.deliver(comm.rank, comm._tracer.events)

        raise_failures(sched.failures, sched.tracebacks)
        return sched.results

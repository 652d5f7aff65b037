"""The ``cooperative`` backend: deterministic coroutine-style scheduling.

All ranks of the job are multiplexed by a single round-robin scheduler
with **exactly one rank runnable at any instant**.  A rank runs until it
*blocks* — an incomplete collective or an unmatched ``recv`` — then the
scheduler hands control to the next runnable rank in deterministic
round-robin order.  The last rank arriving at a collective performs the
combine inline and releases every waiter, so a p-rank collective costs
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
import traceback
from collections import deque
from typing import Any, Callable, Sequence

from ..communicator import ANY_TAG, Communicator
from ..errors import (
    CollectiveAbortedError,
    CollectiveMismatchError,
    InvalidRankError,
    SpmdWorkerError,
)
from ..payload import payload_nbytes
from ..tracing import TraceRecorder
from .base import SpmdEngine

__all__ = ["CooperativeEngine", "CooperativeCommunicator"]

# rank lifecycle states
_RUNNABLE, _RUNNING, _BLOCKED, _FINISHED = range(4)


class _Group:
    """Collective + mailbox state for one communicator (split creates
    private sub-groups, exactly like the thread engine)."""

    __slots__ = ("members", "size", "observer", "op", "contribs",
                 "arrived", "waiting", "error", "boxes")

    def __init__(self, members: list[int], observer: Any | None):
        self.members = members          # group rank -> global rank
        self.size = len(members)
        self.observer = observer
        self.op: str | None = None
        self.contribs: list = [None] * self.size
        self.arrived = 0
        self.waiting: list[int] = []    # group ranks parked in the step
        self.error: BaseException | None = None
        self.boxes: list[deque] = [deque() for _ in members]


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
        self.root = _Group(list(range(size)), observer)
        self.error: BaseException | None = None
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

    def abort_from(self, grank: int, exc: BaseException) -> None:
        """A rank died: release every parked rank with the abort error."""
        if self.error is None:
            err = CollectiveAbortedError(
                f"rank {grank} aborted: {type(exc).__name__}: {exc}",
                origin_rank=grank,
            )
            err.__cause__ = exc
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
        try:
            self.results[grank] = worker(comm, *args, **kwargs)
        except CollectiveAbortedError as exc:
            # secondary failure caused by another rank (origin records
            # the root cause in abort_from)
            if grank not in self.failures:
                self.failures[grank] = exc
                self.tracebacks[grank] = traceback.format_exc()
        except BaseException as exc:
            self.failures[grank] = exc
            self.tracebacks[grank] = traceback.format_exc()
            self.abort_from(grank, exc)
        finally:
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
            err = CollectiveAbortedError(f"deadlock detected: {detail}")
            for g in blocked:
                self.wake(g, exc=err)
            self._handoff()
        for t in carriers:
            t.join()


class CooperativeCommunicator(Communicator):
    """Per-rank communicator handle backed by the cooperative scheduler."""

    def __init__(self, sched: _Scheduler, group: _Group, rank: int,
                 perf: Any | None = None):
        super().__init__(rank, group.size, perf=perf)
        self._sched = sched
        self._group = group
        #: this rank's global id (group rank == global rank only pre-split)
        self._grank = group.members[rank]

    # -- engine primitives ---------------------------------------------

    def _check_errors(self, check_group: bool = True) -> None:
        if self._sched.error is not None:
            raise self._sched.error
        if check_group and self._group.error is not None:
            raise self._group.error

    def _exchange_impl(self, op, payload, combine, comm_bytes=None):
        sched, grp = self._sched, self._group
        self._check_errors()
        if grp.arrived == 0:
            grp.op = op
        elif op != grp.op:
            exc = CollectiveMismatchError(
                f"rank {self.rank} called {op!r} while peers are in {grp.op!r}"
            )
            grp.error = exc
            waiting, grp.waiting = grp.waiting, []
            for r in waiting:
                sched.wake(grp.members[r], exc=exc)
            raise exc
        grp.contribs[self.rank] = payload
        grp.arrived += 1
        if grp.arrived < grp.size:
            grp.waiting.append(self.rank)
            return sched.block(
                self._grank,
                f"collective {op!r} ({grp.arrived}/{grp.size} ranks arrived)",
            )
        # last arriving rank: execute the step inline
        contribs = grp.contribs
        waiting, grp.waiting = grp.waiting, []
        grp.contribs = [None] * grp.size
        grp.arrived = 0
        grp.op = None
        try:
            results = combine(contribs)
            if len(results) != grp.size:
                raise AssertionError(
                    f"combine for {op!r} returned {len(results)} results"
                )
            if grp.observer is not None:
                if comm_bytes is not None:
                    sent, recv = comm_bytes(contribs)
                else:
                    sent = recv = [0] * grp.size
                grp.observer.on_collective(op, sent, recv, grp.size)
        except BaseException as exc:    # propagate to every rank
            err = CollectiveAbortedError(
                f"collective {op!r} failed on combining rank {self.rank}: {exc}",
                origin_rank=self.rank,
            )
            err.__cause__ = exc
            grp.error = err
            for r in waiting:
                sched.wake(grp.members[r], exc=err)
            raise err
        for r in waiting:
            sched.wake(grp.members[r], value=results[r])
        return results[self.rank]

    # -- point-to-point -------------------------------------------------

    def _deliver(self, payload: Any, src: int) -> None:
        if self._group.observer is not None:
            self._group.observer.on_ptp(src, self.rank,
                                        payload_nbytes(payload))

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self.size:
            raise InvalidRankError(f"dest {dest} outside [0, {self.size})")
        self._check_errors(check_group=False)
        sched, grp = self._sched, self._group
        dest_g = grp.members[dest]
        wait = sched.states[dest_g].recv_wait
        if wait is not None:
            wgrp, wsource, wtag = wait
            if wgrp is grp and wsource == self.rank and \
                    (wtag == ANY_TAG or wtag == tag):
                if grp.observer is not None:
                    grp.observer.on_ptp(self.rank, dest, payload_nbytes(obj))
                sched.wake(dest_g, value=obj)
                return
        grp.boxes[dest].append((self.rank, tag, obj))

    def _match_box(self, source: int, tag: int, *, pop: bool) -> tuple:
        box = self._group.boxes[self.rank]
        for idx, (src, msg_tag, payload) in enumerate(box):
            if src == source and (tag == ANY_TAG or msg_tag == tag):
                if pop:
                    del box[idx]
                    self._deliver(payload, src)
                return True, payload
        return False, None

    def recv(self, source: int, tag: int = 0) -> Any:
        if not 0 <= source < self.size:
            raise InvalidRankError(f"source {source} outside [0, {self.size})")
        self._check_errors(check_group=False)
        found, payload = self._match_box(source, tag, pop=True)
        if found:
            return payload
        self._sched.states[self._grank].recv_wait = (self._group, source, tag)
        return self._sched.block(
            self._grank, f"recv(source={source}, tag={tag})"
        )

    def _try_recv(self, source: int, tag: int) -> tuple[bool, Any]:
        self._check_errors(check_group=False)
        return self._match_box(source, tag, pop=True)

    def _probe(self, source: int, tag: int) -> bool:
        self._check_errors(check_group=False)
        return self._match_box(source, tag, pop=False)[0]

    # -- sub-communicators ----------------------------------------------

    def split(self, color: int, key: int | None = None) \
            -> "CooperativeCommunicator | None":
        """Partition the communicator MPI-style (same semantics as the
        thread engine's :meth:`ThreadCommunicator.split`)."""
        me = (color, key if key is not None else self.rank, self.rank)
        parent = self._group

        def combine(contribs: list) -> list:
            groups: dict[int, list[tuple[int, int]]] = {}
            for c, k, r in contribs:
                if c >= 0:
                    groups.setdefault(c, []).append((k, r))
            plans: list = [None] * len(contribs)
            for c, members in groups.items():
                members.sort()
                grp = _Group([parent.members[r] for _k, r in members], None)
                for new_rank, (_k, old_rank) in enumerate(members):
                    plans[old_rank] = (new_rank, grp)
            return plans

        plan = self._exchange("split", me, combine)
        if plan is None:
            return None
        new_rank, grp = plan
        return CooperativeCommunicator(self._sched, grp, new_rank,
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
        recorders: list[TraceRecorder] | None = None
        if trace is not None:
            trace.begin(size, backend="cooperative")
            recorders = [TraceRecorder(r, size) for r in range(size)]
            for comm, rec in zip(comms, recorders):
                comm._tracer = rec
        sched.run(worker, args, kwargs, comms)
        if recorders is not None:
            for rank, rec in enumerate(recorders):
                trace.deliver(rank, rec.events)

        if sched.failures:
            roots = {
                r: e for r, e in sched.failures.items()
                if not isinstance(e, CollectiveAbortedError)
            }
            raise SpmdWorkerError(roots or sched.failures, sched.tracebacks)
        return sched.results

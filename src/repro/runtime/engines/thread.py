"""The ``thread`` backend: one Python thread per rank, at most one running
per core.

Ranks interact *only* through their
:class:`~repro.runtime.communicator.Communicator`; the matching semantics
(order-checked collective steps, FIFO mailboxes, splits) are the shared
:class:`~.group.Group` core, and this module adds only how a rank *waits*:

* one job lock guards all state of the job — the world and every
  sub-communicator split from it;
* a rank that must wait parks on its own semaphore, and whoever releases
  it (the last arriver of a collective step, the sender of the message a
  ``recv`` waits for, an abort) wakes exactly that rank with its result;
* at most :func:`usable_cores` ranks run at once.  A rank gives up its
  *slot* when it parks or finishes, and a woken rank queues for one, so
  at p ≫ cores the ranks do not all fight for the GIL.  A miss in a
  non-blocking receive or probe hands the slot to a queued rank, so a
  polling loop cannot starve the rank it waits for;
* a deadlock is structural: when every live rank is parked nothing can
  release them, and the job aborts at once naming the call each rank is
  stuck in.  There are no timed waits; ``timeout`` is ignored.

Results are deterministic (all cross-rank data flow happens inside the
group state under the job lock).  Scheduling order is too on a one-core
host, where the single slot passes round-robin like a baton.  A one-rank
job runs inline, with no threads.

An optional *observer* (:class:`~repro.runtime.engines.base.CommObserver`)
receives one callback per collective step and per point-to-point delivery
on the world communicator; the performance model (:mod:`repro.perfmodel`)
plugs in here to price traffic and advance the simulated clocks.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import Any, Callable, Sequence

from ..collective import Collective
from ..communicator import Communicator
from ..errors import CollectiveAbortedError, CollectiveMismatchError
from ..payload import payload_nbytes
from ..tracing import TraceRecorder
from .base import CommObserver, SpmdEngine
from .group import Group, abort_error, raise_failures, run_worker

__all__ = ["ThreadCommunicator", "ThreadEngine", "usable_cores"]


def usable_cores() -> int:
    """Cores this process may run on: how many ranks run at once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity API on this platform
        return os.cpu_count() or 1


class _Job:
    """All state of one job, by global rank.  Every method but
    :meth:`wait` is called with :attr:`lock` held."""

    def __init__(self, size: int, observer: CommObserver | None):
        self.lock = threading.Lock()
        self.sems = [threading.Semaphore(0) for _ in range(size)]
        #: the call each parked rank waits in
        self.parked: dict[int, str] = {}
        #: ``(group, source, tag)`` of each rank parked in a blocking recv
        self.recv_waits: dict[int, tuple] = {}
        #: ``(value, exception)`` each woken rank resumes with
        self.woken: list[tuple] = [(None, None)] * size
        self.free = usable_cores()      # run slots nobody holds
        self.queue: deque[int] = deque()    # runnable, waiting for a slot
        self.live = size                # ranks not yet finished
        self.world = Group(list(range(size)))
        self.observer = observer        # prices the world group only
        self.error: CollectiveAbortedError | None = None
        self.results: list = [None] * size
        self.failures: dict[int, BaseException] = {}
        self.tracebacks: dict[int, str] = {}

    def check(self) -> None:
        if self.error is not None:
            raise self.error

    def run(self, g: int) -> None:
        """Let rank ``g`` run: at once on a free slot, else when one frees."""
        if self.free:
            self.free -= 1
            self.sems[g].release()
        else:
            self.queue.append(g)

    def pass_slot(self) -> None:
        """The calling rank gives up its slot, to the longest-queued rank."""
        if self.queue:
            self.sems[self.queue.popleft()].release()
        else:
            self.free += 1

    def park(self, g: int, where: str, recv_wait: tuple | None = None) -> None:
        """Rank ``g`` must wait in ``where``; it then calls :meth:`wait`."""
        self.parked[g] = where
        if recv_wait is not None:
            self.recv_waits[g] = recv_wait
        self.pass_slot()
        self._settle()

    def wake(self, g: int, value: Any = None,
             exc: BaseException | None = None) -> None:
        """Release parked rank ``g`` with a result (or an exception)."""
        del self.parked[g]
        self.recv_waits.pop(g, None)
        self.woken[g] = (value, exc)
        self.run(g)

    def abort(self, err: CollectiveAbortedError) -> None:
        """The job failed (first error wins): release every parked rank,
        whichever communicator it is blocked on."""
        if self.error is None:
            self.error = err
        for g in sorted(self.parked):
            self.wake(g, exc=self.error)

    def finish(self, g: int, kind: str, value: Any, tb: str) -> None:
        """Record how rank ``g``'s worker ended and free its slot."""
        if kind == "done":
            self.results[g] = value
        else:
            self.failures[g] = value
            self.tracebacks[g] = tb
            if kind == "error":
                self.abort(abort_error(g, value))
        self.live -= 1
        self.pass_slot()
        self._settle()

    def _settle(self) -> None:
        """When every live rank is parked, nothing can ever release them."""
        if self.live and len(self.parked) == self.live:
            detail = "; ".join(f"rank {g} in {where}"
                               for g, where in sorted(self.parked.items()))
            self.abort(CollectiveAbortedError(f"deadlock detected: {detail}"))

    def wait(self, g: int) -> Any:
        """Block rank ``g`` (lock released) until it holds a slot again;
        return what it was woken with, or raise it."""
        self.sems[g].acquire()
        (value, exc), self.woken[g] = self.woken[g], (None, None)
        if exc is not None:
            raise exc
        return value


class ThreadCommunicator(Communicator):
    """Per-rank communicator handle backed by the shared thread engine."""

    def __init__(self, job: _Job, group: Group, rank: int,
                 perf: Any | None = None):
        super().__init__(rank, group.size, perf=perf)
        self._job = job
        self._group = group
        #: this rank's global id (group rank == global rank only pre-split)
        self._grank = group.members[rank]
        #: priced traffic is the world communicator's only
        self._observer = job.observer if group is job.world else None

    def _exchange_impl(self, spec, payload):
        job, grp = self._job, self._group
        op = spec.name
        with job.lock:
            job.check()
            try:
                last = grp.arrive(self.rank, op, payload)
            except CollectiveMismatchError as exc:
                for r in grp.take_step()[2]:    # the parked peers raise too
                    job.wake(grp.members[r], exc=exc)
                raise
            if last:
                waiting = grp.arrived[:-1]
                observer = self._observer
                try:
                    results, sent, recv = grp.finish_step(
                        self.rank, spec, priced=observer is not None)
                except CollectiveAbortedError as err:
                    job.abort(err)
                    raise
                if observer is not None:
                    observer.on_collective(op, sent, recv, grp.size)
                for r in waiting:
                    job.wake(grp.members[r], value=results[r])
                return results[self.rank]
            job.park(self._grank, f"collective {op!r} "
                     f"({len(grp.arrived)}/{grp.size} ranks arrived)")
        return job.wait(self._grank)

    # -- point-to-point -------------------------------------------------

    def _match(self, dest: int, source: int, tag: int, *,
               pop: bool) -> tuple[bool, Any]:
        """Look in group rank ``dest``'s mailbox, pricing a delivery;
        caller holds the job lock."""
        self._job.check()
        found, payload = self._group.match(dest, source, tag, pop=pop)
        if found and pop and self._observer is not None:
            self._observer.on_ptp(source, dest, payload_nbytes(payload))
        return found, payload

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest, "dest")
        job, grp = self._job, self._group
        with job.lock:
            job.check()
            grp.post(self.rank, dest, tag, obj)
            # hand the message straight to a receiver parked waiting for it
            wait = job.recv_waits.get(grp.members[dest])
            if wait is not None and wait[0] is grp:
                found, payload = self._match(dest, wait[1], wait[2], pop=True)
                if found:
                    job.wake(grp.members[dest], value=payload)

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_peer(source, "source")
        job = self._job
        with job.lock:
            found, payload = self._match(self.rank, source, tag, pop=True)
            if found:
                return payload
            job.park(self._grank, f"recv(source={source}, tag={tag})",
                     (self._group, source, tag))
        return job.wait(self._grank)

    def _poll(self, source: int, tag: int, pop: bool) -> tuple[bool, Any]:
        """A non-blocking look; a miss lets a queued rank run first."""
        job = self._job
        with job.lock:
            found = self._match(self.rank, source, tag, pop=pop)
            if found[0] or not job.queue:
                return found
            job.queue.append(self._grank)
            job.pass_slot()
        job.wait(self._grank)
        return found

    def _try_recv(self, source: int, tag: int) -> tuple[bool, Any]:
        return self._poll(source, tag, pop=True)

    def _probe(self, source: int, tag: int) -> bool:
        return self._poll(source, tag, pop=False)[0]

    def split(self, color: int, key: int | None = None) -> "ThreadCommunicator | None":
        """MPI_Comm_split (see :meth:`Communicator.split`): the new groups
        share the job, so aborts and deadlock detection reach them too."""
        plan = self._exchange(
            Collective("split"),
            (color, key if key is not None else self.rank))
        if plan is None:
            return None
        group, new_rank = plan
        return ThreadCommunicator(self._job, group, new_rank, perf=self.perf)


class ThreadEngine(SpmdEngine):
    """Runs ranks as Python threads, at most one running per core (the
    default backend)."""

    name = "thread"
    detects_deadlock = True

    def run(
        self,
        size: int,
        worker: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict | None = None,
        *,
        observer: CommObserver | None = None,
        rank_perf: Sequence[Any] | None = None,
        timeout: float | None = None,   # unused: deadlocks are structural
        trace: Any | None = None,
        checkpoint: Any | None = None,  # write path only; no retry
    ) -> list:
        kwargs = kwargs or {}
        job = _Job(size, observer)
        perfs = rank_perf if rank_perf is not None else [None] * size
        comms = [ThreadCommunicator(job, job.world, r, perf=perfs[r])
                 for r in range(size)]
        if trace is not None:
            trace.begin(size, backend="thread")
            for comm in comms:
                comm._tracer = TraceRecorder(comm.rank, size)

        def run_rank(g: int) -> None:
            job.wait(g)                 # the first slot
            kind, value, tb = run_worker(worker, comms[g], args, kwargs)
            with job.lock:
                job.finish(g, kind, value, tb)

        with job.lock:
            for g in range(size):
                job.run(g)
        if size == 1:
            run_rank(0)                 # no threads needed for one rank
        else:
            threads = [
                threading.Thread(target=run_rank, args=(g,),
                                 name=f"spmd-rank-{g}")
                for g in range(size)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        if trace is not None:
            for comm in comms:
                trace.deliver(comm.rank, comm._tracer.events)

        raise_failures(job.failures, job.tracebacks)
        return job.results

"""The ``thread`` backend: one Python thread per rank.

Each rank executes the same worker function against a
:class:`~repro.runtime.communicator.Communicator` handle, exactly like an
MPI process against ``MPI_COMM_WORLD``.  Ranks interact *only* through the
communicator; the matching semantics (order-checked collective steps,
FIFO mailboxes, splits) are the shared :class:`~.group.Group` core, and
this module adds only how a rank *waits*: every communicator of a job —
the world and every sub-communicator split from it — parks on one
job-wide condition variable, so a single ``notify_all`` under a single
lock both completes a step and delivers an abort to whoever is blocked,
on whichever communicator.

Properties:

* shared-memory payloads (zero-copy between ranks);
* preemptive OS scheduling — compute is GIL-serialized, but numpy kernels
  release the GIL, so vectorized workloads see partial overlap;
* deterministic results (every collective is a full barrier and all
  cross-rank data flow happens inside the group state under one lock),
  though *scheduling order* between collectives is up to the OS;
* timed waits guard against deadlock (``timeout`` / ``REPRO_SPMD_TIMEOUT``).

An optional *observer* (:class:`~repro.runtime.engines.base.CommObserver`)
receives one callback per collective step (with per-rank byte counts) and
per point-to-point delivery on the world communicator; the performance
model (:mod:`repro.perfmodel`) plugs in here to price traffic and advance
the simulated clocks of all ranks in lock-step.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from ..collective import Collective
from ..communicator import Communicator
from ..errors import CollectiveAbortedError, CollectiveMismatchError
from ..payload import payload_nbytes
from ..tracing import TraceRecorder
from .base import CommObserver, SpmdEngine
from .group import Group, abort_error, raise_failures, run_worker

__all__ = ["ThreadCommunicator", "ThreadEngine"]


class _Job:
    """What all communicators of one job share: the single lock/condition
    every rank parks on, the wait timeout, and the job-wide abort."""

    __slots__ = ("cond", "timeout", "error")

    def __init__(self, timeout: float):
        self.cond = threading.Condition(threading.Lock())
        self.timeout = timeout
        self.error: CollectiveAbortedError | None = None

    def abort(self, err: CollectiveAbortedError) -> None:
        """Mark the job failed (first error wins) and wake every waiting
        rank, whichever communicator it is blocked on."""
        with self.cond:
            if self.error is None:
                self.error = err
            self.cond.notify_all()


class _ThreadGroup(Group):
    """A group plus the shelf where a finished step's results wait for
    the ranks still parked on it."""

    __slots__ = ("generation", "results")

    def __init__(self, members: list[int]):
        super().__init__(members)
        self.generation = 0
        self.results: list = []


class ThreadCommunicator(Communicator):
    """Per-rank communicator handle backed by the shared thread engine."""

    def __init__(self, rank: int, job: _Job, group: _ThreadGroup,
                 observer: CommObserver | None = None,
                 perf: Any | None = None):
        super().__init__(rank, group.size, perf=perf)
        self._job = job
        self._group = group
        #: priced traffic is the world communicator's only; split() hands
        #: sub-communicators no observer
        self._observer = observer

    def _exchange_impl(self, spec, payload):
        job, grp, rank = self._job, self._group, self.rank
        op = spec.name
        with job.cond:
            if job.error is not None:
                raise job.error
            try:
                last = grp.arrive(rank, op, payload)
            except CollectiveMismatchError:
                job.cond.notify_all()   # parked peers raise grp.error
                raise
            if last:
                observer = self._observer
                try:
                    results, sent, recv = grp.finish_step(
                        rank, spec, priced=observer is not None)
                except CollectiveAbortedError as err:
                    if job.error is None:
                        job.error = err
                    job.cond.notify_all()
                    raise
                if observer is not None:
                    observer.on_collective(op, sent, recv, grp.size)
                grp.results = results
                grp.generation += 1
                job.cond.notify_all()
                return results[rank]
            # wait for the step to complete
            gen = grp.generation
            while grp.generation == gen:
                if job.error is not None:
                    raise job.error
                if grp.error is not None:
                    raise grp.error
                if not job.cond.wait(timeout=job.timeout):
                    raise CollectiveAbortedError(
                        f"rank {rank} timed out inside collective {op!r} "
                        f"({len(grp.arrived)}/{grp.size} ranks arrived)"
                    )
            return grp.results[rank]

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest, "dest")
        job = self._job
        with job.cond:
            if job.error is not None:
                raise job.error
            self._group.post(self.rank, dest, tag, obj)
            job.cond.notify_all()

    def _match(self, source: int, tag: int, *, pop: bool) -> tuple[bool, Any]:
        """Look in this rank's mailbox; caller holds the job lock."""
        if self._job.error is not None:
            raise self._job.error
        found, payload = self._group.match(self.rank, source, tag, pop=pop)
        if found and pop and self._observer is not None:
            self._observer.on_ptp(source, self.rank, payload_nbytes(payload))
        return found, payload

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_peer(source, "source")
        job = self._job
        with job.cond:
            while True:
                found, payload = self._match(source, tag, pop=True)
                if found:
                    return payload
                if not job.cond.wait(timeout=job.timeout):
                    raise CollectiveAbortedError(
                        f"rank {self.rank} timed out in "
                        f"recv(source={source}, tag={tag})"
                    )

    def _try_recv(self, source: int, tag: int) -> tuple[bool, Any]:
        with self._job.cond:
            return self._match(source, tag, pop=True)

    def _probe(self, source: int, tag: int) -> bool:
        with self._job.cond:
            return self._match(source, tag, pop=False)[0]

    def split(self, color: int, key: int | None = None) -> "ThreadCommunicator | None":
        """MPI_Comm_split (see :meth:`Communicator.split`): the new groups
        park on the same job-wide condition, so aborts reach them too."""
        plan = self._exchange(
            Collective("split"),
            (color, key if key is not None else self.rank))
        if plan is None:
            return None
        group, new_rank = plan
        return ThreadCommunicator(new_rank, self._job, group, perf=self.perf)


class ThreadEngine(SpmdEngine):
    """Runs ranks as synchronized Python threads (the default backend)."""

    name = "thread"
    detects_deadlock = False

    def run(
        self,
        size: int,
        worker: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict | None = None,
        *,
        observer: CommObserver | None = None,
        rank_perf: Sequence[Any] | None = None,
        timeout: float | None = None,
        trace: Any | None = None,
        checkpoint: Any | None = None,   # write path only; no retry
    ) -> list:
        kwargs = kwargs or {}
        job = _Job(timeout)
        world = _ThreadGroup(list(range(size)))
        results: list = [None] * size
        failures: dict[int, BaseException] = {}
        tracebacks: dict[int, str] = {}
        failures_lock = threading.Lock()
        comms = [
            ThreadCommunicator(
                r, job, world, observer,
                perf=rank_perf[r] if rank_perf is not None else None,
            )
            for r in range(size)
        ]
        if trace is not None:
            trace.begin(size, backend="thread")
            for comm in comms:
                comm._tracer = TraceRecorder(comm.rank, size)

        def run_rank(rank: int) -> None:
            kind, value, tb = run_worker(worker, comms[rank], args, kwargs)
            if kind == "done":
                results[rank] = value
                return
            with failures_lock:
                failures[rank] = value
                tracebacks[rank] = tb
            if kind == "error":
                job.abort(abort_error(rank, value))

        if size == 1:
            # fast path: no threads needed for a single rank
            run_rank(0)
        else:
            threads = [
                threading.Thread(target=run_rank, args=(r,),
                                 name=f"spmd-rank-{r}")
                for r in range(size)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        if trace is not None:
            for comm in comms:
                trace.deliver(comm.rank, comm._tracer.events)

        raise_failures(failures, tracebacks)
        return results

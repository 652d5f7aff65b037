"""The ``thread`` backend: one Python thread per rank.

Each rank executes the same worker function against a
:class:`~repro.runtime.communicator.Communicator` handle, exactly like an
MPI process against ``MPI_COMM_WORLD``.  Ranks interact *only* through the
communicator; the engine synchronizes them with a single rendezvous object
per collective step (all ranks must issue collectives in the same order —
an MPI requirement the engine actively verifies).

Properties:

* shared-memory payloads (zero-copy between ranks);
* preemptive OS scheduling — compute is GIL-serialized, but numpy kernels
  release the GIL, so vectorized workloads see partial overlap;
* deterministic results (every collective is a full barrier and all
  cross-rank data flow happens inside the rendezvous under one lock),
  though *scheduling order* between collectives is up to the OS;
* timed waits guard against deadlock (``timeout`` / ``REPRO_SPMD_TIMEOUT``).

An optional *observer* (:class:`~repro.runtime.engines.base.CommObserver`)
receives one callback per collective step (with per-rank byte counts) and
per point-to-point delivery; the performance model
(:mod:`repro.perfmodel`) plugs in here to price traffic and advance the
simulated clocks of all ranks in lock-step.
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
from .base import CommObserver, SpmdEngine

__all__ = ["ThreadCommunicator", "ThreadEngine"]


class _Rendezvous:
    """All-ranks meeting point executing one collective step at a time."""

    def __init__(self, size: int, observer: CommObserver | None,
                 timeout: float):
        self.size = size
        self.observer = observer
        self.timeout = timeout
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._generation = 0
        self._arrived = 0
        self._op: str | None = None
        self._contribs: list = [None] * size
        self._results: list = []
        self._error: BaseException | None = None

    def abort(self, exc: BaseException, origin_rank: int) -> None:
        """Mark the job failed and wake every waiting rank."""
        with self._cond:
            if self._error is None:
                err = CollectiveAbortedError(
                    f"rank {origin_rank} aborted: {type(exc).__name__}: {exc}",
                    origin_rank=origin_rank,
                )
                err.__cause__ = exc
                self._error = err
            self._cond.notify_all()

    def run(
        self,
        rank: int,
        op: str,
        payload: Any,
        combine: Callable[[list], list],
        comm_bytes: Callable[[list], tuple[list[int], list[int]]] | None,
    ) -> Any:
        with self._cond:
            if self._error is not None:
                raise self._error
            gen = self._generation
            if self._arrived == 0:
                self._op = op
            elif op != self._op:
                exc = CollectiveMismatchError(
                    f"rank {rank} called {op!r} while peers are in {self._op!r}"
                )
                self._error = exc
                self._cond.notify_all()
                raise exc
            self._contribs[rank] = payload
            self._arrived += 1
            if self._arrived == self.size:
                contribs = self._contribs
                try:
                    results = combine(contribs)
                    if len(results) != self.size:
                        raise AssertionError(
                            f"combine for {op!r} returned {len(results)} results"
                        )
                    if self.observer is not None:
                        if comm_bytes is not None:
                            sent, recv = comm_bytes(contribs)
                        else:
                            sent = recv = [0] * self.size
                        self.observer.on_collective(op, sent, recv, self.size)
                except BaseException as exc:  # propagate to every rank
                    self._error = CollectiveAbortedError(
                        f"collective {op!r} failed on combining rank {rank}: {exc}",
                        origin_rank=rank,
                    )
                    self._error.__cause__ = exc
                    self._cond.notify_all()
                    raise self._error
                self._results = results
                self._contribs = [None] * self.size
                self._arrived = 0
                self._generation += 1
                self._cond.notify_all()
                return results[rank]
            # wait for the step to complete
            while self._generation == gen and self._error is None:
                if not self._cond.wait(timeout=self.timeout):
                    raise CollectiveAbortedError(
                        f"rank {rank} timed out inside collective {op!r} "
                        f"({self._arrived}/{self.size} ranks arrived)"
                    )
            if self._error is not None:
                raise self._error
            return self._results[rank]


class _Mailboxes:
    """Point-to-point channels: one FIFO per destination rank."""

    def __init__(self, size: int, observer: CommObserver | None,
                 timeout: float):
        self.size = size
        self.observer = observer
        self.timeout = timeout
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._boxes: list[deque] = [deque() for _ in range(size)]
        self._error: BaseException | None = None

    def abort(self, exc: BaseException, origin_rank: int) -> None:
        with self._cond:
            if self._error is None:
                err = CollectiveAbortedError(
                    f"rank {origin_rank} aborted: {type(exc).__name__}: {exc}",
                    origin_rank=origin_rank,
                )
                err.__cause__ = exc
                self._error = err
            self._cond.notify_all()

    def send(self, source: int, dest: int, tag: int, payload: Any) -> None:
        with self._cond:
            if self._error is not None:
                raise self._error
            self._boxes[dest].append((source, tag, payload))
            self._cond.notify_all()

    def _match(self, rank: int, source: int, tag: int, *, pop: bool):
        """Find (and optionally remove) the first matching message; caller
        holds the lock.  Returns (found, payload)."""
        box = self._boxes[rank]
        for idx, (src, msg_tag, payload) in enumerate(box):
            if src == source and (tag == ANY_TAG or msg_tag == tag):
                if pop:
                    del box[idx]
                    if self.observer is not None:
                        self.observer.on_ptp(src, rank,
                                             payload_nbytes(payload))
                return True, payload
        return False, None

    def recv(self, rank: int, source: int, tag: int) -> Any:
        with self._cond:
            while True:
                if self._error is not None:
                    raise self._error
                found, payload = self._match(rank, source, tag, pop=True)
                if found:
                    return payload
                if not self._cond.wait(timeout=self.timeout):
                    raise CollectiveAbortedError(
                        f"rank {rank} timed out in recv(source={source}, tag={tag})"
                    )

    def try_recv(self, rank: int, source: int, tag: int) -> tuple:
        """Non-blocking receive: (matched, payload)."""
        with self._cond:
            if self._error is not None:
                raise self._error
            return self._match(rank, source, tag, pop=True)

    def probe(self, rank: int, source: int, tag: int) -> bool:
        """Non-destructive check for a matching message (MPI_Iprobe)."""
        with self._cond:
            if self._error is not None:
                raise self._error
            return self._match(rank, source, tag, pop=False)[0]


class ThreadCommunicator(Communicator):
    """Per-rank communicator handle backed by the shared thread engine."""

    def __init__(
        self,
        rank: int,
        size: int,
        rendezvous: _Rendezvous,
        mailboxes: _Mailboxes,
        perf: Any | None = None,
    ):
        super().__init__(rank, size, perf=perf)
        self._rendezvous = rendezvous
        self._mailboxes = mailboxes

    def _exchange_impl(self, op, payload, combine, comm_bytes=None):
        return self._rendezvous.run(self.rank, op, payload, combine, comm_bytes)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if not 0 <= dest < self.size:
            raise InvalidRankError(f"dest {dest} outside [0, {self.size})")
        self._mailboxes.send(self.rank, dest, tag, obj)

    def recv(self, source: int, tag: int = 0) -> Any:
        if not 0 <= source < self.size:
            raise InvalidRankError(f"source {source} outside [0, {self.size})")
        return self._mailboxes.recv(self.rank, source, tag)

    def _try_recv(self, source: int, tag: int) -> tuple[bool, Any]:
        return self._mailboxes.try_recv(self.rank, source, tag)

    def _probe(self, source: int, tag: int) -> bool:
        return self._mailboxes.probe(self.rank, source, tag)

    def split(self, color: int, key: int | None = None) -> "ThreadCommunicator | None":
        """Partition the communicator into sub-communicators (MPI_Comm_split).

        Ranks passing the same ``color`` form a new communicator; within
        it they are re-ranked by ``(key, old rank)`` ascending (``key``
        defaults to the old rank).  Passing a negative color opts out and
        returns ``None`` (the MPI_UNDEFINED convention).

        Each sub-communicator gets private rendezvous and mailbox state,
        so collectives and point-to-point messages on it cannot interfere
        with the parent's.  The parent communicator remains usable; as in
        MPI, all ranks must agree on which communicator each operation
        targets.  Sub-communicator traffic is not priced by the parent's
        performance observer (the lock-step clock is defined over the full
        machine); ``comm.perf`` compute accounting still works.
        """
        me = (color, key if key is not None else self.rank, self.rank)

        def combine(contribs: list) -> list:
            groups: dict[int, list[tuple[int, int]]] = {}
            for c, k, r in contribs:
                if c >= 0:
                    groups.setdefault(c, []).append((k, r))
            # one private engine per group
            plans: list = [None] * len(contribs)
            for c, members in groups.items():
                members.sort()
                size = len(members)
                rendezvous = _Rendezvous(size, None, self._rendezvous.timeout)
                mailboxes = _Mailboxes(size, None, self._mailboxes.timeout)
                for new_rank, (_k, old_rank) in enumerate(members):
                    plans[old_rank] = (new_rank, size, rendezvous, mailboxes)
            return plans

        plan = self._exchange("split", me, combine)
        if plan is None:
            return None
        new_rank, size, rendezvous, mailboxes = plan
        return ThreadCommunicator(new_rank, size, rendezvous, mailboxes,
                                  perf=self.perf)


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
        rendezvous = _Rendezvous(size, observer, timeout)
        mailboxes = _Mailboxes(size, observer, timeout)
        results: list = [None] * size
        failures: dict[int, BaseException] = {}
        tracebacks: dict[int, str] = {}
        failures_lock = threading.Lock()
        recorders: list[TraceRecorder] | None = None
        if trace is not None:
            trace.begin(size, backend="thread")
            recorders = [TraceRecorder(r, size) for r in range(size)]

        def run_rank(rank: int) -> None:
            perf = rank_perf[rank] if rank_perf is not None else None
            comm = ThreadCommunicator(rank, size, rendezvous, mailboxes,
                                      perf=perf)
            if recorders is not None:
                comm._tracer = recorders[rank]
            try:
                results[rank] = worker(comm, *args, **kwargs)
            except CollectiveAbortedError as exc:
                # secondary failure caused by another rank; record only if
                # it originated here (origin rank records the root cause
                # below)
                with failures_lock:
                    if rank not in failures:
                        failures[rank] = exc
                        tracebacks[rank] = traceback.format_exc()
            except BaseException as exc:
                with failures_lock:
                    failures[rank] = exc
                    tracebacks[rank] = traceback.format_exc()
                rendezvous.abort(exc, rank)
                mailboxes.abort(exc, rank)

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

        if recorders is not None:
            for rank, rec in enumerate(recorders):
                trace.deliver(rank, rec.events)

        if failures:
            # prefer reporting root causes over secondary
            # CollectiveAbortedErrors
            roots = {
                r: e for r, e in failures.items()
                if not isinstance(e, CollectiveAbortedError)
            }
            raise SpmdWorkerError(roots or failures, tracebacks)
        return results

"""Abstract communicator: the MPI-like API every engine implements.

All of ScalParC (and the parallel SPRINT baseline) is written against this
interface, exactly as the paper's implementation is written against MPI.
It carries what the algorithms use and nothing more: the exscan of
FindSplitI, the MINLOC allreduce of FindSplitII, the all-to-all
personalized exchanges of the parallel hashing paradigm, the gathers and
barrier around them, and blocking point-to-point for the machine
benchmark — with numpy arrays as the preferred payload type (mirroring
mpi4py's buffer-based upper-case methods).  A job has one communicator
per rank, spanning the whole world.

Engines implement two primitives:

* :meth:`Communicator._exchange_impl` — a synchronous, order-checked
  rendezvous of all ranks in one *named* collective; and
* :meth:`Communicator.send` / :meth:`Communicator.recv` — blocking
  point-to-point.

Every collective method here (barrier, allgather(v), reduce, allreduce,
exscan, alltoall(v)) only validates its arguments and names a
:class:`~repro.runtime.collective.Collective`; what that collective
computes is defined once, in :mod:`repro.runtime.collective`, and runs
wherever an engine lets the contributions meet.
:meth:`Communicator._exchange` is the thin wrapper over the engine
primitive that also books each completed collective on the rank's ledger
(``comm.perf``, priced after the run by :func:`repro.perfmodel.price`)
and, when the job runs with tracing enabled, appends one event stamped
with the communicator's ``phase`` and ``level`` to ``trace_events`` (see
:mod:`repro.runtime.tracing`), so semantics, accounting and tracing are
engine-independent.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from .collective import Collective
from .errors import CollectiveAbortedError, InvalidRankError
from .fusion import FusedBatch
from .reduction import ReduceOp
from .tracing.events import trace_event

__all__ = [
    "Communicator",
    "NullPerf",
    "SelfCommunicator",
]


class NullPerf:
    """No-op performance tracker used when no perf model is attached.

    Lets algorithm code call ``comm.perf.add_compute(...)`` etc.
    unconditionally.
    """

    def add_compute(self, kind: str, count: float) -> None:
        """No-op (unpriced run)."""

    def register_bytes(self, tag: str, nbytes: int) -> None:
        """No-op (unpriced run)."""

    def release_bytes(self, tag: str) -> None:
        """No-op (unpriced run)."""

    def transient_bytes(self, nbytes: int) -> None:
        """No-op (unpriced run)."""

    def mark_level(self, label: object) -> None:
        """No-op (unpriced run)."""

    def add_phase_time(self, name: str, seconds: float) -> None:
        """No-op (unpriced run)."""

    def add_transport(self, pickled: int, shared: int) -> None:
        """No-op (unpriced run)."""

    def add_collective(self, spec: Collective, payload: Any) -> None:
        """No-op (unpriced run)."""

    def add_send(self, dest: int, obj: Any) -> None:
        """No-op (unpriced run)."""

    def add_recv(self, source: int, obj: Any) -> None:
        """No-op (unpriced run)."""

    def merge_remote(self, remote: Any) -> None:
        """No-op (unpriced run)."""

    #: NullPerf keeps no ledger; phase timers read this constant
    clock = 0.0


_NULL_PERF = NullPerf()


class Communicator(ABC):
    """A fixed group of ``size`` SPMD ranks; this handle belongs to ``rank``.

    Collectives must be called by *every* rank of the communicator, in the
    same order with matching metadata (op name, root, reduction operator);
    violations raise :class:`~repro.runtime.errors.CollectiveMismatchError`
    on all ranks instead of deadlocking.
    """

    def __init__(self, rank: int, size: int, perf: Any | None = None):
        if size <= 0:
            raise ValueError(f"communicator size must be positive, got {size}")
        if not 0 <= rank < size:
            raise InvalidRankError(f"rank {rank} outside [0, {size})")
        self.rank = rank
        self.size = size
        #: per-rank performance tracker (duck-typed; see perfmodel.RankTracker)
        self.perf = perf if perf is not None else _NULL_PERF
        #: the algorithm phase this rank is in (set by ``timed_phase``)
        self.phase: str | None = None
        #: the tree level (streaming: epoch) this rank is growing (set by
        #: the induction loops)
        self.level: int | None = None
        #: this rank's collective trace: a list the engine attaches when
        #: the job runs with tracing enabled, None otherwise
        self.trace_events: list | None = None

    # ------------------------------------------------------------------
    # engine primitives
    # ------------------------------------------------------------------

    @abstractmethod
    def _exchange_impl(self, spec: Collective, payload: Any) -> Any:
        """Rendezvous all ranks in the collective ``spec`` names;
        ``spec.finish(contributions)`` runs exactly once per step, where
        the contributions meet.  Returns this rank's result."""

    def _exchange(self, spec: Collective, payload: Any,
                  fused: Any | None = None) -> Any:
        """Engine-independent collective front door: dispatches to the
        engine's :meth:`_exchange_impl`, then books the completed
        collective on this rank's ledger (``perf.add_collective``) and,
        when this rank is traced, appends one event to ``trace_events``.
        A collective that aborts records nothing — the truncation is the
        evidence the conformance checker reports.

        ``fused`` is the fusion layer's group behind a fused collective:
        its ``manifest(spec, result)`` expands the event back into per-logical-op
        digest records.  It is only consulted when the rank is traced, so
        untraced fused runs pay nothing for it.
        """
        events, perf = self.trace_events, self.perf
        if events is None:
            result = self._exchange_impl(spec, payload)
        else:
            clock, start = perf.clock, time.perf_counter()
            result = self._exchange_impl(spec, payload)
            events.append(trace_event(
                len(events), spec.name, payload, result,
                time.perf_counter() - start, clock, self.phase, self.level,
                None if fused is None else fused.manifest(spec, result)))
        perf.add_collective(spec, payload)
        return result

    @abstractmethod
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking-buffered point-to-point send (MPI_Send with buffering)."""

    @abstractmethod
    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking point-to-point receive matching (source, tag) in FIFO
        order per (source, tag) channel."""

    def _check_peer(self, rank: int, role: str) -> None:
        """Validate a point-to-point ``source`` / ``dest`` argument."""
        if not 0 <= rank < self.size:
            raise InvalidRankError(f"{role} {rank} outside [0, {self.size})")

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise InvalidRankError(f"root {root} outside [0, {self.size})")

    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""
        self._exchange(Collective("barrier"), None)

    def allgather(self, obj: Any) -> list:
        """Gather one object per rank onto every rank (rank order)."""
        return self._exchange(Collective("allgather"), obj)

    def allgatherv(self, arr: np.ndarray) -> np.ndarray:
        """Concatenate per-rank 1-D (or same-trailing-shape) arrays onto
        every rank, in rank order."""
        return self._exchange(Collective("allgatherv"), np.asarray(arr))

    # -- reductions -----------------------------------------------------

    def fused(self) -> FusedBatch:
        """Open a deferred-collective batch (see :mod:`repro.runtime.fusion`).

        Within the returned context, ``exscan``/``allreduce``/``reduce``
        calls on the batch return futures; leaving the block flushes all
        pending operations as one rendezvous per (kind, operator, layout)
        group::

            with comm.fused() as batch:
                f = batch.exscan(counts, reduction.SUM)
            prefix = f.result()
        """
        return FusedBatch(self)

    def reduce(self, value: Any, op: ReduceOp, root: int = 0) -> Any:
        """Reduce numpy values elementwise with *op*; result only at root."""
        self._check_root(root)
        return self._exchange(Collective("reduce", op.name, root), value)

    def allreduce(self, value: Any, op: ReduceOp) -> Any:
        """Reduce with *op*; every rank gets the result (a private copy)."""
        return self._exchange(Collective("allreduce", op.name), value)

    def exscan(self, value: Any, op: ReduceOp) -> Any:
        """Exclusive prefix reduction: rank r gets fold of ranks < r
        (rank 0 gets the operator identity)."""
        return self._exchange(Collective("exscan", op.name), value)

    # -- all-to-all personalized -----------------------------------------

    def alltoall(self, objs: Sequence[Any]) -> list:
        """Personalized exchange: rank i's ``objs[j]`` is delivered to rank
        j; returns the list indexed by source rank."""
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs exactly {self.size} items")
        return self._exchange(Collective("alltoall"), list(objs))

    def alltoallv(self, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Personalized exchange of numpy arrays (MPI_Alltoallv): rank i's
        ``arrays[j]`` goes to rank j; returns arrays indexed by source."""
        if len(arrays) != self.size:
            raise ValueError(f"alltoallv needs exactly {self.size} arrays")
        return self._exchange(Collective("alltoallv"),
                              [np.asarray(a) for a in arrays])


class SelfCommunicator(Communicator):
    """A world of one, in process: the communicator a rank grows work on
    that needs no other rank (ScalParC's subtrees after the hand-off).

    Every collective is its spec's ``finish`` over the one contribution,
    run in place — no engine, no ledger row, no trace event: nothing is
    priced as communication and nothing crosses a transport.  ``perf`` is
    the caller's tracker: compute, memory and phase rows still land on
    the rank that does the work.
    Point-to-point is a FIFO per tag to oneself.
    """

    def __init__(self, perf: Any | None = None):
        super().__init__(0, 1, perf)
        self._box: list[tuple[int, Any]] = []

    def _exchange(self, spec: Collective, payload: Any,
                  fused: Any | None = None) -> Any:
        return self._exchange_impl(spec, payload)

    def _exchange_impl(self, spec: Collective, payload: Any) -> Any:
        return spec.finish([payload])[0]

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest, "dest")
        self._box.append((tag, obj))

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_peer(source, "source")
        for idx, (msg_tag, obj) in enumerate(self._box):
            if msg_tag == tag:
                del self._box[idx]
                return obj
        raise CollectiveAbortedError(
            f"recv(source=0, tag={tag}) on a world of one: nothing was "
            "sent, so it would wait forever")

"""Deferred-collective fusion: batch many reductions into few rendezvous.

ScalParC's scalability argument (§3.1) is that communication is batched
*per level*, not per node — yet a straightforward FindSplit issues its
reductions *per attribute*: two exscans per continuous attribute plus one
coordinator reduction per categorical attribute, i.e. O(n_attributes)
engine rendezvous per level.  At fixed byte volume, fewer larger messages
win (each rendezvous pays the full collective latency — a pipe round-trip
per rank on the process backend), so this module extends the per-level
batching idea to the reductions themselves.

Inside a batch context, ``exscan`` / ``allreduce`` / ``reduce`` calls do
not communicate; they return :class:`FusedFuture` handles.  On flush, all
pending operations with a compatible (collective kind, operator, dtype,
layout) signature are packed into **one** concatenated buffer with an
offset manifest and executed as a single
:meth:`~repro.runtime.communicator.Communicator._exchange` rendezvous per
group; the packed result is then sliced back into the futures::

    with comm.fused() as batch:
        below = batch.exscan(counts, reduction.SUM)      # no rendezvous yet
        pred = batch.exscan(boundary, KEEP_LAST)
        cube = batch.reduce(matrix, reduction.SUM, root=2)
    # exiting flushes: one rendezvous per (kind, operator, layout) group
    counts_prefix = below.result()

Because every ``ReduceOp`` in this runtime folds contributions
elementwise in rank order, packing is exact: the per-section slices of a
fused reduction are bit-identical to the results of the separate
collectives they replace.  ``cellwise`` operators (SUM, MIN, …) are
flattened to one dimension, so differently-shaped contributions share a
buffer; row-coupled operators (KEEP_LAST, BEST_SPLIT) are concatenated
along the leading axis and grouped by trailing shape.

A fused ``reduce`` is *segmented*: each section names its own root, so
one rendezvous serves every categorical attribute's coordinator at once —
the root receives its sections, other ranks receive ``None`` placeholders
exactly as with a plain ``reduce``.

Pricing and tracing both see one collective per group: the cost model
charges the collective latency once and the bandwidth term on the summed
bytes (this is the measurable win), while a traced rank's event for the
group carries a ``fused_from`` manifest of per-logical-op digests so the
conformance checker — and the fused-vs-unfused differential suite — can
still cross-validate every *logical* collective individually.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from .collective import Collective, section_views
from .payload import payload_nbytes
from .reduction import ReduceOp
from .tracing.events import LogicalOp, payload_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .communicator import Communicator

__all__ = ["FusedBatch", "FusedFuture", "FusionError"]

#: layout marker for cellwise operators (sections flattened to 1-D)
_CELL = "cell"


class FusionError(RuntimeError):
    """Misuse of the fusion API (unflushed future, reused batch, …)."""


class FusedFuture:
    """Handle for one deferred collective inside a :class:`FusedBatch`.

    ``result()`` is valid only after the owning batch flushed (leaving
    the ``with comm.fused()`` block flushes it).
    """

    __slots__ = ("_op", "_resolved", "_value")

    def __init__(self, op: str):
        self._op = op
        self._resolved = False
        self._value: Any = None

    def _resolve(self, value: Any) -> None:
        self._resolved = True
        self._value = value

    @property
    def done(self) -> bool:
        return self._resolved

    def result(self) -> Any:
        """The deferred collective's result for this rank."""
        if not self._resolved:
            raise FusionError(
                f"future of deferred {self._op} read before its batch "
                "flushed — leave the fused() block (or call flush()) first"
            )
        return self._value


class _Section:
    """One deferred logical collective: its original payload plus the
    rows it occupies in the group's packed buffer."""

    __slots__ = ("future", "original", "packed", "root", "logical_op")

    def __init__(self, future: FusedFuture, original: np.ndarray,
                 packed: np.ndarray, root: int | None, logical_op: str):
        self.future = future
        self.original = original
        self.packed = packed
        self.root = root
        self.logical_op = logical_op


class _Group:
    """All deferred collectives sharing one packable signature."""

    __slots__ = ("kind", "op", "sections")

    def __init__(self, kind: str, op: ReduceOp):
        self.kind = kind
        self.op = op
        self.sections: list[_Section] = []

    def spec(self) -> Collective:
        """The one collective this group flushes as: its kind, operator
        and section layout (row bounds in the packed buffer, original
        shapes, and each section's root for a segmented ``reduce``)."""
        stops = np.cumsum([len(s.packed) for s in self.sections]).tolist()
        return Collective(f"fused_{self.kind}", self.op.name, sections=tuple(
            (stop, s.original.shape, s.root)
            for stop, s in zip(stops, self.sections)))

    def unpack(self, spec: Collective, result: Any) -> list:
        """This rank's result of the fused collective, per section."""
        if self.kind == "reduce":       # already segmented, by root
            return list(result)
        return section_views(result, spec.sections)

    def manifest(self, spec: Collective, result: Any) -> tuple:
        """Expand the fused event back into its logical collectives so the
        conformance checker and differential suites can cross-validate
        each one (built only when the run is traced)."""
        return tuple(
            LogicalOp(
                op=s.logical_op,
                dtype=str(s.original.dtype),
                shape=tuple(s.original.shape),
                payload_digest=payload_digest(s.original),
                payload_nbytes=int(s.original.nbytes),
                result_digest=payload_digest(out),
                result_nbytes=payload_nbytes(out),
            )
            for s, out in zip(self.sections, self.unpack(spec, result))
        )


class FusedBatch:
    """Collects deferred collectives and flushes them as fused rendezvous.

    Usable as a context manager; the batch flushes on a clean exit (an
    exception propagates without flushing, leaving the futures
    unresolved).  A batch is single-shot: enqueueing after the flush
    raises.  Collective semantics are unchanged — every rank must build
    an identical batch, and the flush participates in the engine's
    collective ordering like any other collective call.
    """

    def __init__(self, comm: "Communicator"):
        self._comm = comm
        #: (kind, op name, dtype, layout) -> _Group, in first-use order
        self._groups: dict[tuple, _Group] = {}
        self._flushed = False

    # -- deferred collectives ---------------------------------------------

    def exscan(self, value: Any, op: ReduceOp) -> FusedFuture:
        """Deferred :meth:`Communicator.exscan`."""
        return self._enqueue("exscan", value, op, None)

    def allreduce(self, value: Any, op: ReduceOp) -> FusedFuture:
        """Deferred :meth:`Communicator.allreduce`."""
        return self._enqueue("allreduce", value, op, None)

    def reduce(self, value: Any, op: ReduceOp, root: int = 0) -> FusedFuture:
        """Deferred :meth:`Communicator.reduce` (sections may name
        different roots; one segmented rendezvous serves them all)."""
        self._comm._check_root(root)
        return self._enqueue("reduce", value, op, root)

    def _enqueue(self, kind: str, value: Any, op: ReduceOp,
                 root: int | None) -> FusedFuture:
        if self._flushed:
            raise FusionError("batch already flushed; open a new fused() "
                              "block for further collectives")
        arr = np.asarray(value)
        if op.cellwise:
            packed = arr.reshape(-1)
            layout: tuple | str = _CELL
        else:
            if arr.ndim < 1:
                raise FusionError(
                    f"operator {op.name!r} couples cells along a trailing "
                    "axis; scalar contributions cannot be fused"
                )
            packed = arr
            layout = arr.shape[1:]
        if kind == "exscan" and op.identity_like is None:
            raise ValueError(
                f"operator {op.name!r} has no identity; cannot exscan"
            )
        logical = Collective(kind, op.name, root).name
        future = FusedFuture(logical)
        key = (kind, op.name, str(arr.dtype), layout)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(kind, op)
        group.sections.append(_Section(future, arr, packed, root, logical))
        return future

    # -- flush -------------------------------------------------------------

    def flush(self) -> None:
        """Execute every pending group as one rendezvous each and resolve
        all futures.  Idempotent once flushed."""
        if self._flushed:
            return
        self._flushed = True
        for group in self._groups.values():
            self._run_group(group)
        self._groups.clear()

    def __enter__(self) -> "FusedBatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()

    # -- group execution ---------------------------------------------------

    def _run_group(self, group: _Group) -> None:
        sections = group.sections
        packed = np.concatenate([s.packed for s in sections]) \
            if len(sections) > 1 else sections[0].packed
        spec = group.spec()
        self._comm.perf.transient_bytes(packed.nbytes)
        result = self._comm._exchange(spec, packed, fused=group)
        for section, value in zip(sections, group.unpack(spec, result)):
            section.future._resolve(value)

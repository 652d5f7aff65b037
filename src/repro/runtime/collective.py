"""Every collective, defined once: a picklable spec and one pure ``finish``.

MPI names its collectives and its operators (``MPI_Allreduce`` + an
``MPI_Op`` handle), so any node of the machine can carry one out.  A
:class:`Collective` is that name — kind, operator *name*, root and, for a
fused group, its section layout — and :meth:`Collective.finish` is the
whole of what the collective computes: one result per rank.  It runs
wherever the contributions meet: on the last arriving rank of the
in-process engines, inside the router of ``process`` / ``tcp`` (so a
step is two hops: rank → router → rank).  The communicator methods, the
fusion layer and the engines only *name* a collective; nothing else
knows what one computes.  Nothing here prices one either: each rank
books its own contribution size on its ledger, and
:func:`repro.perfmodel.price` derives the bytes every rank sent and
received after the run.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np

from .reduction import lookup

__all__ = ["Collective", "section_views"]


def section_views(packed: Any, sections: tuple) -> list[np.ndarray]:
    """Slice a fused group's packed buffer back into its logical
    sections — ``sections`` as in :attr:`Collective.sections` — each
    restored to its original shape."""
    packed = np.asarray(packed)
    views, start = [], 0
    for stop, shape, _root in sections:
        views.append(np.ascontiguousarray(packed[start:stop]).reshape(shape))
        start = stop
    return views


class Collective(NamedTuple):
    """What one collective call is, as data.  :attr:`name` is the op
    string every rank must agree on; it also appears in traces, timeout
    reports and the cost model."""

    kind: str
    #: :class:`~repro.runtime.reduction.ReduceOp` name (reductions only)
    op: str | None = None
    root: int | None = None
    #: fused groups: ``(stop, shape, root)`` per packed logical op — the
    #: end of its rows in the packed buffer, its original shape, and the
    #: rank its result goes to (segmented ``fused_reduce`` only)
    sections: tuple = ()

    @property
    def name(self) -> str:
        params = []
        if self.op is not None:
            params.append(f"op={self.op}")
        if self.root is not None:
            params.append(f"root={self.root}")
        if self.sections:
            params.append(f"n={len(self.sections)}")
        return f"{self.kind}({','.join(params)})" if params else self.kind

    @property
    def transposes(self) -> bool:
        """True for the all-to-alls: blocks only change hands, one
        receiver each, so they can stay encoded end to end and the block a
        rank addresses to itself need not travel at all."""
        return self.kind in ("alltoall", "alltoallv")

    def finish(self, contribs: list) -> list:
        """One complete step: one result per rank."""
        kind = self.kind.removeprefix("fused_")     # same fold, packed
        return _RESULTS[kind](self, contribs)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


def _at_root(spec: Collective, size: int, value: Any) -> list:
    out: list = [None] * size
    out[spec.root] = value
    return out


def _transpose(_spec: Collective, contribs: list) -> list:
    # rank j's result is block j of every rank's contribution, in
    # source-rank order; blocks are moved, never looked into
    size = len(contribs)
    return [[contribs[i][j] for i in range(size)] for j in range(size)]


def _reduce(spec: Collective, contribs: list) -> list:
    total = lookup(spec.op).reduce(contribs)
    if not spec.sections:
        return _at_root(spec, len(contribs), total)
    # segmented: each section goes to its own root, None elsewhere
    views = section_views(total, spec.sections)
    return [[view if root == r else None
             for view, (_stop, _shape, root) in zip(views, spec.sections)]
            for r in range(len(contribs))]


def _allreduce(spec: Collective, contribs: list) -> list:
    total = lookup(spec.op).reduce(contribs)
    return [total.copy() for _ in contribs]         # private copies


_RESULTS = {
    "barrier": lambda spec, c: [None] * len(c),
    "allgather": lambda spec, c: [list(c)] * len(c),
    "allgatherv": lambda spec, c: [
        np.concatenate([np.asarray(x) for x in c])] * len(c),
    "alltoall": _transpose,
    "alltoallv": _transpose,
    "reduce": _reduce,
    "allreduce": _allreduce,
    "exscan": lambda spec, c: lookup(spec.op).exscan(c),
}

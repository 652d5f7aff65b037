"""Reduction operators for the simulated runtime's reduce/allreduce/exscan.

Operators mirror the MPI predefined set (SUM, PROD, MIN, MAX, logical and
bitwise ops, MINLOC/MAXLOC) plus a hook for user-defined operators, which
ScalParC uses for its lexicographic "best split" reduction.

All operators work elementwise on numpy arrays (or on scalars, which are
treated as 0-d arrays).  The combine order is fixed: contributions are
folded in rank order, ``((r0 ⊕ r1) ⊕ r2) …``, which makes integer reductions
exact and floating-point reductions deterministic across runs.

An operator *is* its name (the ``MPI_Op`` handle idea): a collective
travels as a :class:`~repro.runtime.collective.Collective` carrying the
name, and whichever process finishes the step — the last arriving rank
in-process, the router on ``process`` / ``tcp`` — resolves it with
:func:`lookup`.  Hence one name, one operator, and an operator must exist
before the job forks its ranks: create it at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ReduceOp",
    "SUM",
    "PROD",
    "MIN",
    "MAX",
    "LAND",
    "LOR",
    "BAND",
    "BOR",
    "MINLOC",
    "MAXLOC",
    "lookup",
    "make_op",
]

#: name -> operator; every :class:`ReduceOp` registers itself on creation
_REGISTRY: dict[str, "ReduceOp"] = {}


@dataclass(frozen=True)
class ReduceOp:
    """A named, associative, elementwise binary reduction operator.

    Parameters
    ----------
    name:
        The operator's identity: it travels in op strings, traces and
        collective specs, and :func:`lookup` resolves it.  Creating a
        *different* operator under a taken name raises ``ValueError``;
        re-creating an identical one is a no-op.
    fn:
        Binary function ``fn(acc, contribution) -> acc`` applied in rank
        order.
    identity_like:
        Optional function producing the operator identity for a given
        template array; required for exclusive scans (rank 0's result).
    cellwise:
        True when the operator treats every array cell independently
        (SUM, MIN, …), making it invariant under reshaping — the fusion
        layer (:mod:`repro.runtime.fusion`) may then flatten and
        concatenate arbitrary-shaped contributions into one buffer.
        Operators that couple cells within a trailing axis (MINLOC,
        MAXLOC, lexicographic row reductions) must set False; fusion then
        only concatenates contributions sharing that trailing shape.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    identity_like: Callable[[np.ndarray], np.ndarray] | None = None
    cellwise: bool = True

    def __post_init__(self) -> None:
        if _REGISTRY.setdefault(self.name, self) != self:
            raise ValueError(
                f"a different reduction operator named {self.name!r} "
                "already exists; operators are resolved by name, so every "
                "name must denote one operator"
            )

    def reduce(self, contributions: Sequence[np.ndarray]) -> np.ndarray:
        """Fold *contributions* in rank order and return the total."""
        if not contributions:
            raise ValueError("cannot reduce zero contributions")
        acc = np.asarray(contributions[0]).copy()
        for item in contributions[1:]:
            acc = np.asarray(self.fn(acc, np.asarray(item)))
        return acc

    def exscan(self, contributions: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Exclusive prefix: result[r] = fold of contributions[0..r-1].

        ``result[0]`` is the operator identity (requires ``identity_like``).
        """
        if self.identity_like is None:
            raise ValueError(f"operator {self.name!r} has no identity; cannot exscan")
        first = np.asarray(contributions[0])
        out: list[np.ndarray] = [self.identity_like(first)]
        acc = first.copy()
        for item in contributions[1:]:
            out.append(acc.copy())
            acc = np.asarray(self.fn(acc, np.asarray(item)))
        return out


def make_op(
    name: str,
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    identity_like: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ReduceOp:
    """Create a user-defined :class:`ReduceOp` (the MPI_Op_create analogue)."""
    return ReduceOp(name=name, fn=fn, identity_like=identity_like)


def lookup(name: str) -> ReduceOp:
    """The operator called *name*, as known to *this* process."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise LookupError(
            f"reduction operator {name!r} is unknown to the process "
            "finishing the collective — it must exist at import time "
            "(create it at module level, not inside a worker)"
        ) from None


SUM = ReduceOp("sum", lambda a, b: a + b, lambda t: np.zeros_like(t))
PROD = ReduceOp("prod", lambda a, b: a * b, lambda t: np.ones_like(t))
MIN = ReduceOp("min", np.minimum)
MAX = ReduceOp("max", np.maximum)
LAND = ReduceOp("land", np.logical_and, lambda t: np.ones_like(t, dtype=bool))
LOR = ReduceOp("lor", np.logical_or, lambda t: np.zeros_like(t, dtype=bool))
BAND = ReduceOp("band", np.bitwise_and)
BOR = ReduceOp("bor", np.bitwise_or, lambda t: np.zeros_like(t))


def _minloc(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise MINLOC over (value, index) pairs stored in the last axis.

    Arrays have shape ``(..., 2)``: ``[..., 0]`` is the value, ``[..., 1]``
    the location.  Ties keep the lower location, matching MPI_MINLOC.
    """
    take_b = (b[..., 0] < a[..., 0]) | ((b[..., 0] == a[..., 0]) & (b[..., 1] < a[..., 1]))
    return np.where(take_b[..., None], b, a)


def _maxloc(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise MAXLOC over (value, index) pairs; ties keep lower index."""
    take_b = (b[..., 0] > a[..., 0]) | ((b[..., 0] == a[..., 0]) & (b[..., 1] < a[..., 1]))
    return np.where(take_b[..., None], b, a)


MINLOC = ReduceOp("minloc", _minloc, cellwise=False)
MAXLOC = ReduceOp("maxloc", _maxloc, cellwise=False)

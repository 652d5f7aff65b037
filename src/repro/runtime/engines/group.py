"""The rendezvous core every engine drives.

ScalParC's runtime is two primitives — order-checked collectives and
FIFO point-to-point channels — whose *matching semantics* are the same
whichever way ranks execute.  They live here once, as plain state plus
pure transitions: :class:`Group` (the world's collective step, mailboxes
and sticky mismatch), :func:`finish_error` (how a step whose ``finish``
raised is reported), :func:`recv_where` / :meth:`Group.where` (how a
waiting rank's call is named in deadlock and timeout reports), and
:func:`run_worker` / :func:`raise_failures` (how a rank ended; which
failures a job reports).
*What* a step computes is not here: that is
:meth:`repro.runtime.collective.Collective.finish`.  Nothing here locks or
blocks — the caller already owns whatever makes access exclusive (the
thread engine's job lock, the router's single thread).  An engine keeps only *how a rank waits* and
*how bytes move*; see ``docs/runtime.md`` "Engines".
"""

from __future__ import annotations

import traceback
from collections import deque
from typing import Any, Callable

from ..collective import Collective
from ..errors import (
    CollectiveAbortedError,
    CollectiveMismatchError,
    SpmdWorkerError,
    WorkerCrashError,
)

__all__ = [
    "Group",
    "abort_error",
    "finish_error",
    "raise_failures",
    "recv_where",
    "run_worker",
]


class Group:
    """Collective-step and mailbox state of the world communicator of a
    job of ``size`` ranks."""

    __slots__ = ("size", "op", "contribs", "arrived", "boxes", "error")

    def __init__(self, size: int):
        self.size = size
        self.op: str | None = None                  # the step in progress
        self.contribs: list = [None] * size
        #: ranks parked in the current step, in arrival order
        self.arrived: list[int] = []
        #: one FIFO of ``(source, tag, payload)`` per destination rank
        self.boxes: list[deque] = [deque() for _ in range(size)]
        #: sticky: once ranks disagreed on a step the group is unusable
        self.error: CollectiveMismatchError | None = None

    # -- collective steps -----------------------------------------------

    def arrive(self, g: int, op: str, payload: Any) -> bool:
        """Record rank ``g`` entering collective ``op``; True when it was
        the last member and the step can be finished.  An ``op`` other
        than the one its peers are in raises
        :class:`CollectiveMismatchError`, now and on every later call;
        the caller releases the ranks :meth:`take_step` reports as
        parked with the same error."""
        if self.error is not None:
            raise self.error
        if not self.arrived:
            self.op = op
        elif op != self.op:
            self.error = CollectiveMismatchError(
                f"rank {g} called {op!r} while peers are in {self.op!r}"
            )
            raise self.error
        self.contribs[g] = payload
        self.arrived.append(g)
        return len(self.arrived) == self.size

    def take_step(self) -> tuple[str | None, list, list[int]]:
        """Detach the current step — ``(op, contributions, arrived
        ranks)`` — and reset for the next one."""
        step = (self.op, self.contribs, self.arrived)
        self.op = None
        self.contribs = [None] * self.size
        self.arrived = []
        return step

    def where(self) -> str:
        """The call a rank arriving in the current step waits in."""
        return (f"collective {self.op!r} "
                f"({len(self.arrived)}/{self.size} ranks arrived)")

    def finish_step(self, g: int, spec: Collective) -> list:
        """Complete the step on rank ``g`` (the last to arrive): detach it
        and ``spec.finish`` its contributions — one result per rank.
        Any failure is a :func:`finish_error` whose origin is ``g``."""
        op, contribs, _ = self.take_step()
        try:
            return spec.finish(contribs)
        except BaseException as exc:        # propagate to every rank
            raise finish_error(op, g, exc) from exc

    # -- point-to-point -------------------------------------------------

    def post(self, source: int, dest: int, tag: int, payload: Any) -> None:
        """Buffer one message for ``dest``."""
        self.boxes[dest].append((source, tag, payload))

    def match(self, dest: int, source: int, tag: int) -> tuple[bool, Any]:
        """Take the first message for ``dest`` from ``source`` with
        ``tag`` (FIFO per ``(source, tag)``), as ``(found, payload)``."""
        box = self.boxes[dest]
        for idx, (src, msg_tag, payload) in enumerate(box):
            if src == source and msg_tag == tag:
                del box[idx]
                return True, payload
        return False, None


def recv_where(source: int, tag: int) -> str:
    """The call a rank blocked in a receive waits in."""
    return f"recv(source={source}, tag={tag})"


def finish_error(op: str | None, rank: int,
                 exc: BaseException) -> CollectiveAbortedError:
    """The job-wide abort for a collective whose ``finish`` raised once
    rank ``rank``'s arrival had completed the step."""
    return CollectiveAbortedError(
        f"collective {op!r} failed when rank {rank} completed it: "
        f"{type(exc).__name__}: {exc}",
        origin_rank=rank,
    )


def abort_error(origin: int, exc: BaseException) -> CollectiveAbortedError:
    """The error that releases every peer of a rank that raised ``exc``."""
    err = CollectiveAbortedError(
        f"rank {origin} aborted: {type(exc).__name__}: {exc}",
        origin_rank=origin,
    )
    err.__cause__ = exc
    return err


def run_worker(worker: Callable[..., Any], comm: Any, args: tuple,
               kwargs: dict) -> tuple[str, Any, str]:
    """Run one rank's worker and classify how it ended: ``("done",
    result, "")``; ``("aborted", exc, traceback)`` when it was released
    by somebody else's failure (a secondary error); ``("error", exc,
    traceback)`` when the rank itself raised — the caller must then
    abort the job on its behalf."""
    try:
        return "done", worker(comm, *args, **kwargs), ""
    except CollectiveAbortedError as exc:
        return "aborted", exc, traceback.format_exc()
    except BaseException as exc:
        return "error", exc, traceback.format_exc()


def raise_failures(failures: dict[int, BaseException],
                   tracebacks: dict[int, str]) -> None:
    """Raise the job's :class:`SpmdWorkerError` if any rank failed,
    reporting root causes in preference to the aborts and crash echoes
    they triggered on other ranks."""
    if not failures:
        return
    roots = {
        r: e for r, e in failures.items()
        if not isinstance(e, (CollectiveAbortedError, WorkerCrashError))
    }
    raise SpmdWorkerError(roots or failures, tracebacks)

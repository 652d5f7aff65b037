"""Exception hierarchy for the simulated SPMD runtime.

The runtime mimics an MPI job: a fixed set of logical ranks that interact
only through collectives and point-to-point messages.  Errors fall into two
groups:

* programming errors detected by the runtime itself (mismatched collective
  sequences, bad ranks/tags), raised on the offending rank; and
* *aborts*: when one rank dies, every other rank that is blocked (or later
  blocks) inside a communication call is released with
  :class:`CollectiveAbortedError`, so the whole SPMD job tears down instead
  of deadlocking — the analogue of ``MPI_Abort``.
"""

from __future__ import annotations


class SpmdError(Exception):
    """Base class for all errors raised by the simulated runtime."""


class CollectiveMismatchError(SpmdError):
    """Ranks issued different collectives (or different metadata) in the
    same step.

    MPI requires every member of a communicator to call collectives in the
    same order; real MPI deadlocks or corrupts data when this is violated.
    The simulated runtime detects the mismatch and raises on every rank.
    """


class CollectiveAbortedError(SpmdError):
    """A peer rank raised an exception, aborting the whole SPMD job.

    Carries the original exception as ``__cause__`` where available.
    """

    def __init__(self, message: str, origin_rank: int | None = None):
        super().__init__(message)
        self.origin_rank = origin_rank


class InvalidRankError(SpmdError, ValueError):
    """A rank argument was outside ``[0, size)``."""


class WorkerCrashError(SpmdError):
    """A worker rank died without raising a transferable exception (its
    process exited hard, or its exception could not be pickled home)."""


class RemoteTraceback(Exception):
    """Carries the formatted traceback of an exception raised in another
    process; attached as ``__cause__`` so the remote stack shows up in the
    local traceback (the ``multiprocessing.pool`` convention)."""

    def __init__(self, tb: str):
        super().__init__(tb)
        self.tb = tb

    def __str__(self) -> str:
        return "\n" + self.tb


class SpmdWorkerError(SpmdError):
    """Wrapper re-raised by :func:`repro.runtime.run_spmd` when one or more
    worker ranks failed.

    ``failures`` maps rank -> exception; ``tracebacks`` maps rank -> the
    formatted traceback captured where the exception was raised (including
    inside worker processes for the process backend), so the originating
    rank's stack is never lost to the engine boundary.
    """

    def __init__(self, failures: dict[int, BaseException],
                 tracebacks: dict[int, str] | None = None):
        ranks = ", ".join(str(r) for r in sorted(failures))
        first_rank = min(failures)
        first = failures[first_rank]
        message = (
            f"SPMD worker(s) on rank(s) {ranks} failed; "
            f"first failure: {type(first).__name__}: {first}"
        )
        tracebacks = {
            r: tb for r, tb in (tracebacks or {}).items() if r in failures
        }
        if first_rank in tracebacks:
            message += (
                f"\n--- rank {first_rank} traceback ---\n"
                f"{tracebacks[first_rank].rstrip()}"
            )
        super().__init__(message)
        self.failures = failures
        self.tracebacks = tracebacks

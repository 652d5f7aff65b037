"""Collective-trace recording and SPMD conformance checking.

ScalParC's correctness hinges on every rank issuing the *same sequence*
of collectives in lock-step per level (exscan in FindSplitI, the
MINLOC-style best-split allreduce in FindSplitII, the all-to-alls of the
parallel hashing paradigm in PerformSplitI).  This package provides the
machine-checkable evidence:

* :class:`TraceEvent` — one structured record per collective call per
  rank (op kind, reduce operator, dtype/shape, payload and result
  digests, bytes moved, wall time and ledger position, and the
  communicator's ``phase`` / ``level`` at the call), appended by the
  communicator to its ``trace_events`` list when the job is traced;
* :class:`TraceCollector` — gathers the per-rank traces after a job on
  any engine backend, including partial traces from ranks that aborted;
* :func:`check_traces` — the conformance checker: cross-validates the
  per-rank traces and flags mismatched call sequences, operator / shape
  divergence, digest divergence on ostensibly replicated results, and
  ranks that fell out of lock-step, each with a distinct diagnostic code.

Enable with ``run_spmd(..., trace=TraceCollector())``, the
``REPRO_SPMD_TRACE=1`` environment variable (auto-checks every job and
raises :class:`TraceConformanceError` on divergence), or the CLI's
``--trace`` flag.  Tracing is off by default and costs a single
``is None`` check per collective when disabled.  The trace is a sink:
nothing it records feeds the ranks' ledgers, so a fit's priced stats are
the same traced or not.

Like the ranks' ledgers (``comm.perf``), the trace covers every
collective of the job: a job has one communicator per rank, spanning the
world.  A :class:`~repro.runtime.communicator.SelfCommunicator` a rank
grows local work on records nothing.
"""

from .checker import (
    ConformanceReport,
    Diagnostic,
    TraceConformanceError,
    check_traces,
)
from .collector import (
    TraceCollector,
    format_trace_report,
    last_trace_collector,
    resolve_trace,
    trace_enabled,
)
from .events import (
    LogicalOp,
    REDUCE_KINDS,
    REPLICATED_KINDS,
    TRACE_ENV,
    TraceEvent,
    logical_ops,
    payload_digest,
)

__all__ = [
    "ConformanceReport",
    "Diagnostic",
    "LogicalOp",
    "REDUCE_KINDS",
    "REPLICATED_KINDS",
    "TRACE_ENV",
    "TraceCollector",
    "TraceConformanceError",
    "TraceEvent",
    "check_traces",
    "format_trace_report",
    "last_trace_collector",
    "logical_ops",
    "payload_digest",
    "resolve_trace",
    "trace_enabled",
]

"""Per-rank trace recording and whole-job trace collection.

The engine attaches one :class:`TraceRecorder` per rank (as the
communicator's ``_tracer``) when a job runs with tracing enabled; the
communicator's ``_exchange`` wrapper calls :meth:`TraceRecorder.record`
once per completed collective.  After the job — successful or not — the
engine delivers every rank's events to the job's :class:`TraceCollector`
(the process backend ships child-side events home on its final protocol
message, so traces survive worker aborts; a hard-killed process simply
delivers nothing, which the checker reports as a truncated sequence).
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from ..envutil import env_flag
from ..payload import payload_nbytes
from .checker import ConformanceReport, check_traces
from .events import TRACE_ENV, TraceEvent, parse_op, payload_digest

__all__ = [
    "TraceCollector",
    "TraceRecorder",
    "format_trace_report",
    "last_trace_collector",
    "resolve_trace",
    "tag_level",
    "trace_enabled",
]

def trace_enabled() -> bool:
    """True when ``REPRO_SPMD_TRACE`` requests tracing for every job (an
    unrecognised value is an :class:`~repro.runtime.envutil.EnvVarError`,
    not a silent *off*)."""
    return env_flag(TRACE_ENV)


#: collector of the most recent traced job (for post-mortem inspection
#: when tracing was enabled via the environment variable)
_LAST: "TraceCollector | None" = None


def last_trace_collector() -> "TraceCollector | None":
    """The collector of the most recently traced ``run_spmd`` job."""
    return _LAST


def resolve_trace(trace: Any) -> tuple["TraceCollector | None", bool]:
    """Resolve ``run_spmd``'s ``trace`` argument to ``(collector, auto)``.

    ``trace`` may be a :class:`TraceCollector` (caller owns checking),
    ``True`` (make one; caller retrieves it via
    :func:`last_trace_collector`), or ``None`` — which defers to the
    ``REPRO_SPMD_TRACE`` environment variable.  ``auto`` is True when the
    runtime should conformance-check the job itself and raise on
    divergence (the environment-variable path).
    """
    global _LAST
    if isinstance(trace, TraceCollector):
        _LAST = trace
        return trace, False
    if trace or (trace is None and trace_enabled()):
        _LAST = TraceCollector()
        return _LAST, trace is None
    return None, False


def _np_meta(payload: Any) -> tuple[str | None, tuple | None]:
    """(dtype, shape) of a numpy contribution; (None, None) otherwise."""
    if isinstance(payload, np.ndarray):
        return str(payload.dtype), tuple(payload.shape)
    if isinstance(payload, np.generic):
        return str(payload.dtype), ()
    return None, None


class TraceRecorder:
    """Records one rank's collective events; engines attach it as the
    communicator's ``_tracer``.

    The induction loop tags events through :attr:`phase` (set by
    :func:`repro.core.phases.timed_phase`) and :attr:`level` (set by
    :func:`tag_level`).
    """

    __slots__ = ("rank", "size", "events", "phase", "level")

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        self.events: list[TraceEvent] = []
        self.phase: str | None = None
        self.level: int | None = None

    def record(self, op: str, payload: Any, result: Any,
               wall_seconds: float, clock: float, perf: Any,
               fused_from: tuple | None = None) -> None:
        """Append one completed collective; feeds per-phase comm volume
        into the rank's performance tracker when one is attached.

        ``fused_from`` is the per-logical-op manifest supplied by the
        fusion layer for fused rendezvous (None for plain collectives).
        """
        kind, operator = parse_op(op)
        dtype, shape = _np_meta(payload)
        in_bytes = payload_nbytes(payload)
        out_bytes = payload_nbytes(result)
        self.events.append(TraceEvent(
            seq=len(self.events),
            kind=kind,
            op=op,
            operator=operator,
            dtype=dtype,
            shape=shape,
            payload_digest=payload_digest(payload),
            payload_nbytes=in_bytes,
            result_digest=payload_digest(result),
            result_nbytes=out_bytes,
            wall_seconds=wall_seconds,
            clock=clock,
            phase=self.phase,
            level=self.level,
            fused_from=fused_from,
        ))
        if self.phase is not None:
            add = getattr(perf, "add_phase_comm", None)
            if add is not None:
                add(self.phase, in_bytes + out_bytes)


def tag_level(comm: Any, level: int | None) -> None:
    """Tag subsequent collectives on *comm* with a tree level (no-op when
    the job is not being traced)."""
    tracer = getattr(comm, "_tracer", None)
    if tracer is not None:
        tracer.level = level


class TraceCollector:
    """Gathers the per-rank traces of one SPMD job.

    Pass an instance as ``run_spmd(..., trace=collector)`` (or
    ``ScalParC(...).fit(dataset, trace=collector)``); after the job,
    :meth:`check` runs the conformance checker and :meth:`report` renders
    the human-readable trace report.  Reusing a collector for another job
    resets it.
    """

    def __init__(self) -> None:
        self.size: int | None = None
        self.backend: str | None = None
        self.traces: dict[int, list[TraceEvent]] = {}

    # -- engine-facing API ----------------------------------------------

    def begin(self, size: int, backend: str | None = None) -> None:
        """Engine hook: a traced job with ``size`` ranks is starting."""
        self.size = size
        self.backend = backend
        self.traces = {}

    def deliver(self, rank: int, events: Iterable[TraceEvent]) -> None:
        """Engine hook: hand over one rank's recorded events."""
        self.traces[rank] = list(events)

    # -- user-facing API ------------------------------------------------

    def events_of(self, rank: int) -> list[TraceEvent]:
        """One rank's delivered events ([] when it delivered none)."""
        return self.traces.get(rank, [])

    def check(self) -> ConformanceReport:
        """Cross-validate the collected traces."""
        return check_traces(self.traces, size=self.size)

    def report(self) -> str:
        """Human-readable trace + conformance report."""
        return format_trace_report(self)


def format_trace_report(collector: TraceCollector,
                        max_events: int = 12) -> str:
    """Render a collector's traces for humans: per-rank coverage, the
    collective mix, per-phase communication volume, rank 0's leading
    events, and the conformance verdict."""
    size = collector.size if collector.size is not None else (
        (max(collector.traces) + 1) if collector.traces else 0
    )
    lines = [
        f"collective trace: {size} rank(s)"
        + (f", backend={collector.backend}" if collector.backend else "")
    ]
    if size == 0:
        return lines[0] + " — no traces collected"

    counts = [len(collector.events_of(r)) for r in range(size)]
    lines.append(
        "  events/rank   : "
        + ", ".join(f"r{r}={n}" for r, n in enumerate(counts))
    )

    by_kind: dict[str, int] = {}
    by_phase: dict[str, int] = {}
    for events in collector.traces.values():
        for ev in events:
            by_kind[ev.kind] = by_kind.get(ev.kind, 0) + 1
            if ev.phase is not None:
                by_phase[ev.phase] = by_phase.get(ev.phase, 0) \
                    + ev.payload_nbytes + ev.result_nbytes
    if by_kind:
        mix = ", ".join(f"{k}×{n}" for k, n in sorted(by_kind.items()))
        lines.append(f"  collectives   : {mix}")
    if by_phase:
        vol = ", ".join(f"{p}={n}B" for p, n in sorted(by_phase.items()))
        lines.append(f"  phase volume  : {vol}")

    head = collector.events_of(0)[:max_events]
    if head:
        lines.append("  rank 0 head   :")
        lines += [f"    {ev.describe()}" for ev in head]
        remaining = len(collector.events_of(0)) - len(head)
        if remaining > 0:
            lines.append(f"    … {remaining} more event(s)")

    lines.append("  " + collector.check().summary().replace("\n", "\n  "))
    return "\n".join(lines)

"""Whole-job trace collection and the trace report.

When a job runs with tracing enabled, the engine gives every rank's
communicator an empty event list (``comm.trace_events``); the
communicator's ``_exchange`` wrapper appends one
:func:`~repro.runtime.tracing.events.trace_event` per completed
collective, stamped with the communicator's ``phase`` and ``level``.
After the job — successful or not — the engine delivers every rank's
list to the job's :class:`TraceCollector` (the process backend ships
child-side events home on its final protocol message, so traces survive
worker aborts; a hard-killed process simply delivers nothing, which the
checker reports as a truncated sequence).
"""

from __future__ import annotations

from typing import Any, Iterable

from ..envutil import env_flag
from .checker import ConformanceReport, check_traces
from .events import TRACE_ENV, TraceEvent

__all__ = [
    "TraceCollector",
    "format_trace_report",
    "last_trace_collector",
    "resolve_trace",
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
    collective mix, per-phase communication volume (bytes in + out,
    summed over ranks) with the split volume (every ``FindSplit*``
    phase, strategy sub-phases included), rank 0's leading events, and
    the conformance verdict."""
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
        split = sum(n for p, n in by_phase.items()
                    if p.startswith("FindSplit"))
        lines.append(f"  split volume  : {split}B (all FindSplit* phases)")

    head = collector.events_of(0)[:max_events]
    if head:
        lines.append("  rank 0 head   :")
        lines += [f"    {ev.describe()}" for ev in head]
        remaining = len(collector.events_of(0)) - len(head)
        if remaining > 0:
            lines.append(f"    … {remaining} more event(s)")

    lines.append("  " + collector.check().summary().replace("\n", "\n  "))
    return "\n".join(lines)

"""In-memory span log for the benchmark's own stage and probe timers.

Every stage of the pipeline and every probe of the traced pass runs
inside :meth:`SpanLog.span`; the span's duration *is* the measurement,
so the numbers the benchmark prints and the spans it writes can never
disagree.  Spans are kept in memory and written once, at the end
(``<workload>.spans.jsonl``, traced runs only).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

__all__ = ["Span", "SpanLog"]


class Span:
    """One timed interval; ``parent`` is the enclosing span's id."""

    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, id: int, name: str, parent: int | None,
                 start: float, end: float | None = None,
                 attrs: dict | None = None):
        self.id = id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """Spans of one benchmark run; all share ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.rows: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, parent, perf_counter(),
                    attrs=attrs)
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()

    def add(self, name: str, parent: Span, start: float, seconds: float,
            **attrs) -> Span:
        """Record a span measured elsewhere (inside the ranks): the phase
        ledger's aggregates are laid end to end inside the fit span."""
        span = Span(len(self.spans), name, parent.id, start,
                    start + seconds, attrs)
        self.spans.append(span)
        return span

    def add_row(self, kind: str, **fields) -> None:
        """A non-span record (ledger row, count) written with the spans."""
        self.rows.append({"kind": kind, **fields})

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "kind": "span", "run_id": self.run_id, "id": s.id,
                    "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")
            for row in self.rows:
                fh.write(json.dumps({"run_id": self.run_id, **row}) + "\n")

"""Host-speed reference: take episodic host slowdowns out of CPU timings.

On a shared 2-core sandbox the same fit reads ± 20 % from one minute to
the next (other tenants of the host; CPU time moves with wall, so it is
not steal).  A fixed reference operation — interpreter work plus numpy
sort / gather / scan, nothing from this repository — slows down by the
same factor at the same moment, so every CPU-bound timed operation is
bracketed by two reference readings and reported as::

    normalised = raw × NOMINAL_S ÷ mean(reading before, reading after)

``NOMINAL_S`` is what the reference takes on the quiet build host, so a
normalised time reads as "seconds at the build host's quiet speed" and
equals the raw time when the host is quiet.  Parent and change run the
same reference, so a real speed-up moves the normalised number exactly
as it moves the raw one.  Raw medians are kept beside the normalised
ones (``bench.*_raw*`` per-layer metrics and the ``samples`` of
``--out``) and ``bench.host_slowdown`` says how far the host was from
quiet during the run.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

__all__ = ["NOMINAL_S", "HostClock"]

#: reference-op seconds on the quiet 2-core build host
NOMINAL_S = 0.0045

_RNG = np.random.default_rng(12345)
_VALUES = _RNG.random(120_000)
_INDEX = _RNG.integers(0, len(_VALUES), len(_VALUES))


def reference_op() -> float:
    """Seconds one reference operation takes right now."""
    t0 = perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i & 7
    np.cumsum(np.sort(_VALUES).take(_INDEX))
    return perf_counter() - t0


class HostClock:
    """Runs operations inside spans, bracketed by reference readings.

    A reading is the median of three reference operations.
    """

    def __init__(self, spans):
        self.spans = spans
        self.readings: list[float] = []

    def run(self, name: str, fn, **attrs):
        """Run ``fn()`` in a span; returns ``(result, span,
        normalised_seconds)`` — ``span.seconds`` is the raw reading."""
        before = self._read()
        with self.spans.span(name, **attrs) as span:
            out = fn()
        host = (before + self._read()) / 2.0 / NOMINAL_S
        span.attrs["host_slowdown"] = host
        return out, span, span.seconds / host

    def slowdown(self) -> float:
        """Median reading ÷ nominal over the whole run."""
        return statistics.median(self.readings) / NOMINAL_S

    def _read(self) -> float:
        reading = statistics.median(reference_op() for _ in range(3))
        self.readings.append(reading)
        return reading

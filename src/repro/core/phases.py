"""Phase attribution for the simulated clock (Figure 2's phase names).

Wrapping a region in :func:`timed_phase` attributes the clock delta it
spans to the named phase on this rank's tracker — on a ledger, the rows
it spans, which the replay prices in simulated seconds — letting the
performance reports break the parallel runtime down into Presort /
FindSplitI / FindSplitII / PerformSplitI / PerformSplitII — the
per-phase table the paper's accompanying technical report studies — plus
the Handoff that ends the level-synchronous loop at p > 1.

When the region is entered with the *communicator* (rather than a bare
tracker), the region also sets the communicator's ``phase``, which
stamps every collective the region issues when the job is traced
(:mod:`repro.runtime.tracing`); per-phase communication volume is read
from those events, never from the tracker.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "PRESORT",
    "FINDSPLIT1",
    "FINDSPLIT1_HIST",
    "FINDSPLIT1_VOTE",
    "FINDSPLIT2",
    "PERFORMSPLIT1",
    "PERFORMSPLIT2",
    "HANDOFF",
    "STREAM_INGEST",
    "STREAM_SKETCH",
    "STREAM_GROW",
    "ALL_PHASES",
    "FINDSPLIT_PHASES",
    "STREAM_PHASES",
    "timed_phase",
]

PRESORT = "Presort"
FINDSPLIT1 = "FindSplitI"
#: voted strategy: globalizing the elected per-(node, bin, class)
#: count cubes (a FindSplitI sub-phase; its collectives are pinned
#: cross-rank by the conformance checker like any other phase tag)
FINDSPLIT1_HIST = "FindSplitI.hist"
#: voted strategy: the PV-Tree attribute-vote allreduce sub-phase
FINDSPLIT1_VOTE = "FindSplitI.vote"
FINDSPLIT2 = "FindSplitII"
PERFORMSPLIT1 = "PerformSplitI"
PERFORMSPLIT2 = "PerformSplitII"
#: the hand-off (p > 1): moving every candidate node's entries to the
#: rank that grows its subtree alone, and bringing the subtrees' rows
#: back — the only collectives after the level loop stops
HANDOFF = "Handoff"
#: every phase of a default (exact-mode) run: Figure 2's five plus the
#: hand-off; the strategy sub-phases are deliberately not in here: they
#: only appear under the voted mode
ALL_PHASES = (PRESORT, FINDSPLIT1, FINDSPLIT2, PERFORMSPLIT1, PERFORMSPLIT2,
              HANDOFF)
#: the phases that make up split determination across every split mode
#: (byte-accounting group used by the per-mode communication reports
#: and benchmarks)
FINDSPLIT_PHASES = (FINDSPLIT1, FINDSPLIT1_HIST, FINDSPLIT1_VOTE, FINDSPLIT2)

#: streaming induction (see :mod:`repro.streaming`): routing one epoch's
#: chunk into the frontier and retaining it
STREAM_INGEST = "Stream.ingest"
#: streaming induction: the per-node class-total allreduce and the
#: all-to-all carrying each node's sketches to the rank that scores it
STREAM_SKETCH = "Stream.sketch"
#: streaming induction: frontier growth rounds (building the candidates'
#: local sketches, split scoring from the global ones)
STREAM_GROW = "Stream.grow"
#: the epoch-loop phase set of a streaming fit (byte-accounting group
#: for the streaming benchmark and trace reports)
STREAM_PHASES = (STREAM_INGEST, STREAM_SKETCH, STREAM_GROW)


@contextmanager
def timed_phase(perf_or_comm: Any, name: str) -> Iterator[None]:
    """Attribute the clock delta spanned by the block to ``name``.

    Accepts either a tracker (anything with ``clock`` /
    ``add_phase_time``) or a communicator — in the latter case the
    communicator's ``phase`` is ``name`` for the block and is restored
    after it.
    """
    perf = getattr(perf_or_comm, "perf", None)
    if perf is None:
        perf, comm = perf_or_comm, None
    else:
        comm = perf_or_comm
        outer, comm.phase = comm.phase, name
    start = perf.clock
    try:
        yield
    finally:
        perf.add_phase_time(name, perf.clock - start)
        if comm is not None:
            comm.phase = outer

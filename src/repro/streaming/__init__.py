"""Streaming (chunked-ingest) induction.

Batch ScalParC assumes the whole training set is resident before the
presort.  This package drops that assumption: records arrive in epoch
chunks, each rank maintains mergeable per-(node, attribute) split
sketches over what it has retained, and the level-synchronous loop
becomes an epoch loop that grows the frontier as sketches accumulate
mass — with every epoch boundary a sealed checkpoint cut.  A node's
sketches are merged only on the rank that scores it; class totals and
winning splits are what every rank shares.

* :mod:`repro.streaming.sketch` — padded mergeable value/class-count
  sketches and the n-way :func:`merge_stacks` fold a scorer (and
  ingest) runs;
* :mod:`repro.streaming.source` — record-order epoch chunking;
* :mod:`repro.streaming.induction` — the epoch-loop SPMD worker
  (:func:`stream_induce_worker`): one rank's retained records and local
  sketches as a source of the batch drivers' level loop, batch-exact
  when sketches are lossless and growth is finalize-only.
"""

from .induction import stream_induce_worker
from .sketch import (
    build_sketch,
    empty_sketch,
    merge_sketches,
    merge_stacks,
    sketch_entries,
    sketch_identity_like,
)
from .source import ChunkSource

__all__ = [
    "ChunkSource",
    "build_sketch",
    "empty_sketch",
    "merge_sketches",
    "merge_stacks",
    "sketch_entries",
    "sketch_identity_like",
    "stream_induce_worker",
]

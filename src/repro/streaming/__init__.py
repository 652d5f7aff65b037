"""Streaming (chunked-ingest) induction.

Batch ScalParC assumes the whole training set is resident before the
presort.  This package drops that assumption: records arrive in epoch
chunks, each rank only appends them to what it retains, and every epoch
boundary is a sealed checkpoint cut; when the stream ends, the batch
drivers' level loop grows the tree from the root, creating its nodes
level by level as a batch fit does, from mergeable per-(node,
attribute) split sketches built over what each rank retained.  A node's
sketches are merged only on the rank that scores it; class totals and
winning splits are what every rank shares.

* :mod:`repro.streaming.sketch` — padded mergeable value/class-count
  sketches and the n-way :func:`merge_stacks` fold a scorer runs;
* :mod:`repro.streaming.source` — a rank's block of an epoch chunk;
* :mod:`repro.streaming.induction` — the epoch-loop SPMD worker
  (:func:`stream_induce_worker`): one rank's retained records as a
  source of the batch drivers' level loop, batch-exact when sketches
  are lossless.
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

__all__ = [
    "build_sketch",
    "empty_sketch",
    "merge_sketches",
    "merge_stacks",
    "sketch_entries",
    "sketch_identity_like",
    "stream_induce_worker",
]

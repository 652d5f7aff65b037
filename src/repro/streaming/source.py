"""Record-order epoch blocks for streaming induction.

A stream is a materialized :class:`~repro.datagen.schema.Dataset` read
in fixed-size *epoch chunks* in record order — the simulated arrival
stream.  Every rank takes its contiguous ⌈n/p⌉ block of each chunk (the
streaming analogue of §3.1's horizontal fragmentation), so the records a
rank retains are a deterministic function of (stream, chunk size, epoch,
rank, world size) — which is what lets a resumed run on any world size
re-block retained records and continue bit-identically.
"""

from __future__ import annotations

import numpy as np

from ..datagen.schema import Dataset

__all__ = ["rank_block"]


def rank_block(dataset: Dataset, chunk_records: int, offset: int,
               rank: int, size: int) -> Dataset:
    """Rank ``rank``'s contiguous ⌈n/p⌉ block of the ``chunk_records``
    chunk at stream ``offset`` (short at the stream's tail) — only that
    range of the stream is read."""
    n = min(chunk_records, max(dataset.n_records - offset, 0))
    block = -(-n // size)
    return dataset.take(np.arange(
        offset + min(rank * block, n), offset + min((rank + 1) * block, n)))

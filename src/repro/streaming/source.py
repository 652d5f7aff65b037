"""Chunked record sources for streaming induction.

A :class:`ChunkSource` slices a materialized
:class:`~repro.datagen.schema.Dataset` into fixed-size *epoch chunks* in
record order — the simulated arrival stream.  Every rank sees the same
global chunk per epoch and takes its contiguous ⌈n/p⌉ block of it (the
streaming analogue of §3.1's horizontal fragmentation), so the records a
rank retains are a deterministic function of (stream, chunk size, epoch,
rank, world size) — which is what lets a resumed run on any world size
re-block retained records and continue bit-identically.
"""

from __future__ import annotations

import numpy as np

from ..datagen.schema import Dataset

__all__ = ["ChunkSource"]


class ChunkSource:
    """Record-order epoch chunks over a materialized dataset.

    The source is stateless: every accessor takes the stream ``offset``
    of the chunk it serves, so a resumed stream simply continues at its
    checkpoint's cursor.
    """

    def __init__(self, dataset: Dataset, chunk_records: int):
        if chunk_records < 1:
            raise ValueError(
                f"chunk_records must be >= 1, got {chunk_records}")
        self.dataset = dataset
        self.chunk_records = int(chunk_records)

    @property
    def n_records(self) -> int:
        return self.dataset.n_records

    def n_epochs(self, offset: int = 0) -> int:
        """Epochs remaining from ``offset`` (ceil division)."""
        remaining = max(self.dataset.n_records - offset, 0)
        return -(-remaining // self.chunk_records)

    def chunk(self, offset: int) -> Dataset:
        """The global chunk starting at record ``offset`` (short at the
        stream's tail)."""
        hi = min(offset + self.chunk_records, self.dataset.n_records)
        return self.dataset.take(np.arange(offset, hi))

    def rank_block(self, offset: int, rank: int, size: int) -> Dataset:
        """Rank ``rank``'s contiguous ⌈n/p⌉ block of the chunk at
        ``offset`` — only that range of the stream is read."""
        n = min(self.chunk_records, max(self.dataset.n_records - offset, 0))
        block = -(-n // size)
        return self.dataset.take(np.arange(
            offset + min(rank * block, n), offset + min((rank + 1) * block, n)))

"""Parallel shift / block redistribution.

After sample sort, ranks hold globally sorted but unevenly sized runs.  The
paper follows the sort with a *parallel shift operation* that restores the
exact block distribution (rank r owns global positions
``[r·⌈N/p⌉, (r+1)·⌈N/p⌉)``), which the rest of ScalParC assumes.

``shift_to_blocks`` implements the shift as one all-to-all personalized
exchange cut at the block bounds — equivalent data movement to a chain of
neighbor shifts, in a single collective carrying every entry-aligned array
of the run together (``exchange_blocks``, which the sample sort's own
exchange shares).  It needs every rank's run length; Presort already
knows them from its count allreduce, ``redistribute_blocks`` gathers them
first for callers that do not.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..runtime import Communicator

__all__ = ["block_bounds", "block_owner_of", "exchange_blocks",
           "redistribute_blocks", "shift_to_blocks"]


def block_bounds(total: int, size: int, rank: int) -> tuple[int, int]:
    """Global [start, end) of the block owned by *rank* under the ⌈N/p⌉
    block distribution (trailing ranks may own empty blocks)."""
    chunk = -(-total // size) if total else 0
    start = min(rank * chunk, total)
    end = min(start + chunk, total)
    return start, end


def block_owner_of(positions: np.ndarray, total: int, size: int) -> np.ndarray:
    """Owning rank of each global position under the block distribution."""
    chunk = -(-total // size) if total else 1
    return (np.asarray(positions) // max(chunk, 1)).astype(np.int64)


def exchange_blocks(
    comm: Communicator, arrays: Sequence[np.ndarray], cuts: np.ndarray
) -> list[np.ndarray]:
    """One all-to-all personalized exchange of entry-aligned arrays:
    entries ``[cuts[d], cuts[d + 1])`` of every array travel to rank d
    together; returns the received blocks concatenated in source-rank
    order, one array per input array."""
    received = comm.alltoall([
        tuple(a[cuts[d]:cuts[d + 1]] for a in arrays)
        for d in range(comm.size)
    ])
    out = [np.concatenate(parts) for parts in zip(*received)]
    # in flight: what was sent, the received blocks, their concatenation
    comm.perf.transient_bytes(sum(a.nbytes for a in arrays)
                              + 2 * sum(o.nbytes for o in out))
    return out


def shift_to_blocks(
    comm: Communicator,
    arrays: Sequence[np.ndarray],
    run_lengths: Sequence[int],
) -> list[np.ndarray]:
    """Re-balance parallel arrays to the exact ⌈N/p⌉ block distribution.

    ``arrays`` are entry-aligned per-rank fragments (e.g. values, rids,
    labels) and ``run_lengths[r]`` is rank r's fragment length, known to
    every rank; the *global concatenation order* is preserved — only the
    cut points between ranks move.  One all-to-all.

    Returns the re-balanced arrays for this rank.
    """
    n_local = len(arrays[0])
    for a in arrays:
        if len(a) != n_local:
            raise ValueError("shifted arrays must be entry-aligned")
    total = int(np.sum(run_lengths))
    if total == 0:
        return [a[:0] for a in arrays]

    # my run covers global positions [offset, offset + n_local): slice it
    # at the destination blocks' bounds
    offset = int(np.sum(run_lengths[:comm.rank]))
    starts = [block_bounds(total, comm.size, d)[0] for d in range(comm.size)]
    cuts = np.clip(np.array(starts + [total]) - offset, 0, n_local)
    comm.perf.add_compute("split", n_local)
    return exchange_blocks(comm, arrays, cuts)


def redistribute_blocks(
    comm: Communicator, arrays: list[np.ndarray]
) -> list[np.ndarray]:
    """:func:`shift_to_blocks` for fragments whose lengths only their own
    ranks know: one allgather of the lengths, then the shift."""
    return shift_to_blocks(comm, arrays, comm.allgather(len(arrays[0])))

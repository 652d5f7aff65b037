"""Scalable parallel sample sort (the Presort phase).

ScalParC pre-sorts every continuous attribute exactly once using the
sample sort of Kumar et al. (*Introduction to Parallel Computing*, the
paper's reference [6]) followed by a parallel shift:

1. each rank sorts its local fragment;
2. each rank contributes ``p`` regular samples; the gathered ``p²`` samples
   are sorted and ``p−1`` splitters chosen (every rank computes identical
   splitters from the allgathered samples — no designated root needed);
3. local fragments are partitioned by the splitters and exchanged with one
   all-to-all personalized communication;
4. each rank merges its received sorted runs;
5. a parallel shift restores the exact ⌈N/p⌉ block distribution.

Entries are (value, rid, payload…) tuples ordered by the total key
(value, rid) — see :mod:`repro.sort.keys` — so the result is unique and
deterministic for any processor count.
"""

from __future__ import annotations

import math

import numpy as np

from ..runtime import Communicator
from .keys import count_below, lexsort_values_rids
from .shift import redistribute_blocks

__all__ = ["parallel_sample_sort", "choose_splitters"]


def _nlogn(n: int) -> float:
    """Comparison count estimate for an n-element sort."""
    return float(n) * math.log2(n) if n > 1 else float(n)


def choose_splitters(
    sample_values: np.ndarray, sample_rids: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Select ``size − 1`` regular splitters from the gathered samples.

    Samples are sorted by (value, rid) and every ``len/size``-th element
    picked, the standard regular-sampling rule that bounds any rank's final
    share by ``2·N/p`` before the shift.
    """
    order = lexsort_values_rids(sample_values, sample_rids)
    sv = sample_values[order]
    sr = sample_rids[order]
    n = len(sv)
    if n == 0 or size <= 1:
        return sv[:0], sr[:0]
    step = max(n // size, 1)
    idx = np.arange(step, n, step, dtype=np.int64)[: size - 1]
    return sv[idx], sr[idx]


def parallel_sample_sort(
    comm: Communicator,
    values: np.ndarray,
    *aligned: np.ndarray,
    rids: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Globally sort entry-aligned arrays by (value, rid).

    Parameters
    ----------
    comm:
        The communicator; every rank passes its local fragment.
    values:
        Local sort-key values (any numeric dtype).
    aligned:
        Additional entry-aligned payload arrays carried along (e.g. class
        labels).
    rids:
        Local record ids — the tiebreak component of the sort key; must be
        globally unique.

    Returns
    -------
    tuple of arrays
        ``(values, rids, *aligned)`` for this rank, globally sorted and
        re-balanced to the exact ⌈N/p⌉ block distribution.
    """
    arrays = [np.asarray(values), np.asarray(rids)] + [np.asarray(a) for a in aligned]
    n_local = len(arrays[0])
    for a in arrays:
        if len(a) != n_local:
            raise ValueError("sample sort arrays must be entry-aligned")

    # 1. local sort
    order = lexsort_values_rids(arrays[0], arrays[1])
    arrays = [a[order] for a in arrays]
    comm.perf.add_compute("sort", _nlogn(n_local))

    if comm.size == 1:
        return tuple(arrays)

    # 2. regular sampling — p samples per rank, allgathered everywhere
    if n_local > 0:
        pick = np.linspace(0, n_local - 1, num=min(comm.size, n_local),
                           dtype=np.int64)
        my_samples = (arrays[0][pick], arrays[1][pick])
    else:
        my_samples = (arrays[0][:0], arrays[1][:0])
    gathered = comm.allgather(my_samples)
    all_sv = np.concatenate([g[0] for g in gathered])
    all_sr = np.concatenate([g[1] for g in gathered])
    split_v, split_r = choose_splitters(all_sv, all_sr, comm.size)

    # 3. partition by splitters (exact placement within duplicate runs);
    # with fewer samples than ranks (tiny N) the missing trailing splitters
    # behave as +inf: those destinations receive nothing
    cuts = np.full(comm.size + 1, n_local, dtype=np.int64)
    cuts[0] = 0
    for i in range(len(split_v)):
        cuts[i + 1] = count_below(arrays[0], arrays[1],
                                  split_v[i], int(split_r[i]))
    # splitters are sorted, so cuts are monotone by construction
    comm.perf.add_compute("split", n_local)

    merged: list[np.ndarray] = []
    for arr in arrays:
        chunks = [arr[cuts[d]:cuts[d + 1]] for d in range(comm.size)]
        received = comm.alltoallv(chunks)
        merged.append(np.concatenate(received))

    # 4. merge received sorted runs (argsort; runs are already near-sorted)
    n_recv = len(merged[0])
    order = lexsort_values_rids(merged[0], merged[1])
    merged = [a[order] for a in merged]
    comm.perf.add_compute("sort", _nlogn(n_recv))

    # 5. parallel shift back to the block distribution
    balanced = redistribute_blocks(comm, merged)
    return tuple(balanced)

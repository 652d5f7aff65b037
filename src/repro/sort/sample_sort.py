"""Scalable parallel sample sort (the Presort phase).

ScalParC pre-sorts every continuous attribute exactly once using the
sample sort of Kumar et al. (*Introduction to Parallel Computing*, the
paper's reference [6]) followed by a parallel shift.  All attributes of a
rank's record block go through **one schedule**
(:func:`presort_columns`; :func:`parallel_sample_sort` is its one-column
case):

1. each rank sorts every column of its fragment (kept as permutations):
   its rids ascend, so the (value, rid) order is the stable order of the
   values, which :func:`~repro.sort.keys.stable_argsort` computes as an
   unstable SIMD argsort plus a tie repair by position;
2. one allgather carries, for every column, each rank's *interior*
   regular samples — the midpoints of equal strata, never a fragment's
   min or max (:func:`sample_positions` sizes them) — and every rank
   derives identical splitters from them (no designated root), placed so
   each destination receives ≈ N/p entries (:func:`choose_splitters`
   gives the bound);
3. local fragments are cut at the splitters and one allreduce of the
   per-destination counts tells every rank the length of every merged
   run, i.e. the whole shift plan, before any entry moves;
4. per column, one all-to-all personalized exchange carries the
   ``(values, rids, payload…)`` blocks together and the received sorted
   runs are merged (:func:`~repro.sort.keys.lexsort_values_rids`'s stable
   single-key pass: timsort, which merges concatenated sorted runs faster
   than step 1's sort repairs them);
5. per column, one more all-to-all — the parallel shift — restores the
   exact ⌈N/p⌉ block distribution.

That is two small collectives per Presort plus two all-to-alls per
column, with only one column's buffers in flight at a time.  On the wire,
integer arrays (record ids, class labels) travel in the narrowest
unsigned type that holds their global range — the paper's ~13-byte
``(value, rid, class)`` record instead of 24 — and are widened back on
receipt, so callers see the dtypes they passed in.

Entries are (value, rid, payload…) tuples ordered by the total key
(value, rid) — see :mod:`repro.sort.keys` — so the result is unique and
deterministic for any processor count.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from ..runtime import Communicator, reduction
from .keys import count_below, lexsort_values_rids
from .shift import exchange_blocks, shift_to_blocks

__all__ = [
    "choose_splitters",
    "parallel_sample_sort",
    "presort_columns",
    "sample_positions",
    "splitter_cuts",
]

#: regular samples a rank contributes per column, at least
_MIN_SAMPLES = 32

#: wire candidates for non-negative integer arrays, narrowest first
_WIRE_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32))


def _nlogn(n: int) -> float:
    """Comparison count estimate for an n-element sort."""
    return float(n) * math.log2(n) if n > 1 else float(n)


def sample_positions(
    n_local: int, size: int, n_columns: int = 1
) -> np.ndarray:
    """Positions of a rank's regular samples in its sorted fragment: the
    midpoints of ``s`` equal strata, each sample standing for
    ``n_local / s`` entries around it.

    ``s = max(32, p / n_columns)``, or every entry of a shorter fragment.
    Thirty-two samples balance small worlds (see
    :func:`choose_splitters`); past that the columns of one schedule
    share the p² pairs a per-column sort gathers, so their one allgather
    carries ``max(32·n_columns·p, p²)`` pairs and the bound below stays
    at ``(1 + n_columns)·N/p`` however large p grows.
    """
    s = min(max(_MIN_SAMPLES, size // n_columns), n_local)
    return ((2 * np.arange(s, dtype=np.int64) + 1) * n_local) // (2 * s)


def choose_splitters(
    sample_values: np.ndarray,
    sample_rids: np.ndarray,
    size: int,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Select ``size − 1`` splitters from the gathered samples.

    Samples are sorted by (value, rid); ``weights[t]`` is the number of
    entries sample t stands for (its rank's stratum ``n_local / s``; all
    equal when omitted).  Laid end to end in sample order the strata
    estimate every sample's global rank, and splitter j is the sample
    whose stratum contains rank ``j·N/p``.  With stratum-midpoint samples
    that estimate is off by at most half a stratum per rank, so after the
    exchange no rank holds more than ``N/p + p·w`` entries, ``w`` the
    largest stratum (plus rounding, one entry per rank): ``(1 + p/s)·N/p``
    for equal fragments sampled ``s`` times each — ``1.25·N/p`` at
    p ≤ 8 with 32 samples, ``2·N/p`` whenever ``s ≥ p`` — and within one
    entry of ``N/p`` when every entry is a sample.  Measured on the Quest
    columns at N = 100k: 1.03–1.11·⌈N/p⌉ for p ∈ {2, 3, 4, 8} (the tests
    hold 1.15).
    """
    order = lexsort_values_rids(sample_values, sample_rids)
    n = len(order)
    if n == 0 or size <= 1:
        return sample_values[:0], sample_rids[:0]
    w = np.ones(n) if weights is None \
        else np.asarray(weights, dtype=np.float64)[order]
    upto = np.cumsum(w)
    targets = upto[-1] * np.arange(1, size) / size
    idx = np.minimum(np.searchsorted(upto, targets), n - 1)
    return sample_values[order[idx]], sample_rids[order[idx]]


def splitter_cuts(
    values: np.ndarray,
    rids: np.ndarray,
    split_values: np.ndarray,
    split_rids: np.ndarray,
    size: int,
) -> np.ndarray:
    """Cut points of a (value, rid)-sorted fragment at the splitters:
    destination d receives entries ``[cuts[d], cuts[d + 1])``.  Placement
    is exact inside runs of duplicate values; splitters are sorted, so the
    cuts are monotone.  With no splitters (no samples anywhere) everything
    stays on rank 0."""
    cuts = np.full(size + 1, len(values), dtype=np.int64)
    cuts[0] = 0
    for i in range(len(split_values)):
        cuts[i + 1] = count_below(values, rids,
                                  split_values[i], int(split_rids[i]))
    return cuts


def _int_range(arr: np.ndarray) -> tuple[int, int] | None:
    """(min, max) of an integer array; None when empty or not integer."""
    if arr.dtype.kind not in "iu" or len(arr) == 0:
        return None
    return int(arr.min()), int(arr.max())


def _wire_dtype(dtype: np.dtype, ranges: list) -> np.dtype:
    """Narrowest unsigned type holding every rank's range, or ``dtype``
    itself when none is narrower (floats, negatives, ids ≥ 2³²)."""
    ranges = [r for r in ranges if r is not None]
    if not ranges or min(lo for lo, _ in ranges) < 0:
        return dtype
    top = max(hi for _, hi in ranges)
    for wire in _WIRE_DTYPES:
        if wire.itemsize < dtype.itemsize and top <= np.iinfo(wire).max:
            return wire
    return dtype


def presort_columns(
    comm: Communicator,
    columns: Sequence[np.ndarray],
    *aligned: np.ndarray,
    rids: np.ndarray,
) -> Iterator[tuple[np.ndarray, ...]]:
    """Globally sort every column of a record fragment by (value, rid).

    Parameters
    ----------
    comm:
        The communicator; every rank passes its local fragment.
    columns:
        Local sort-key columns (any numeric dtype), all over the same
        records; every rank passes the same number of them.
    aligned:
        Additional record-aligned payload arrays carried along with every
        column (e.g. class labels).
    rids:
        Local record ids — the tiebreak component of the sort key; must be
        globally unique.

    Yields
    ------
    tuple of arrays
        ``(values, rids, *aligned)`` per column, in order: this rank's
        exact ⌈N/p⌉ block of the column's global (value, rid) order.
        Collective, and lazy — a column's two all-to-alls run when it is
        asked for, so every rank must consume the whole iterator.
    """
    columns = [np.asarray(c) for c in columns]
    carried = [np.asarray(rids)] + [np.asarray(a) for a in aligned]
    n_local = len(carried[0])
    for a in columns + carried:
        if len(a) != n_local:
            raise ValueError("sample sort arrays must be entry-aligned")
    if not columns:
        return
    size = comm.size

    def local_sort(col: np.ndarray) -> np.ndarray:
        comm.perf.add_compute("sort", _nlogn(n_local))
        return lexsort_values_rids(col, carried[0])

    if size == 1:
        for col in columns:
            yield tuple(_take([col, *carried], local_sort(col)))
        return

    # 1. local sorts, held as permutations
    orders = [local_sort(col) for col in columns]

    # 2. interior regular samples of every column (and the integer ranges
    # that pick the wire types), allgathered once
    pick = sample_positions(n_local, size, len(columns))
    n_locals, ranges, samples = zip(*comm.allgather((
        n_local,
        [_int_range(c) for c in carried],
        [tuple(_take([col, carried[0]], order[pick]))
         for col, order in zip(columns, orders)],
    )))
    # samples[rank][column] = (values, rids), each standing for a stratum
    weights = np.concatenate([
        np.full(len(mine[0][0]), n / max(len(mine[0][0]), 1))
        for n, mine in zip(n_locals, samples)
    ])
    wire = [c.astype(_wire_dtype(c.dtype, [r[k] for r in ranges]),
                     copy=False)
            for k, c in enumerate(carried)]

    # 3. partition every column by its splitters; one allreduce of the
    # per-destination counts fixes every merged run's length
    cuts = []
    for a, col in enumerate(columns):
        split_v, split_r = choose_splitters(
            np.concatenate([mine[a][0] for mine in samples]),
            np.concatenate([mine[a][1] for mine in samples]),
            size, weights,
        )
        cuts.append(splitter_cuts(*_take([col, carried[0]], orders[a]),
                                  split_v, split_r, size))
        comm.perf.add_compute("split", n_local)
    # run_lengths[column, dest]: what every rank sends there, summed
    run_lengths = comm.allreduce(np.diff(cuts, axis=1), reduction.SUM)

    # 4 + 5 per column; its permutation is freed once its run is gathered
    pending = orders[::-1]
    del orders
    for col, col_cuts, lengths in zip(columns, cuts, run_lengths):
        merged = _exchange_and_merge(
            comm, _take([col, *wire], pending.pop()), col_cuts,
            held=sum(order.nbytes for order in pending),
        )
        shifted = shift_to_blocks(comm, merged, lengths)
        del merged
        yield (shifted[0], *(x.astype(c.dtype, copy=False)   # widen
                             for x, c in zip(shifted[1:], carried)))


def _take(arrays: Sequence[np.ndarray], order: np.ndarray) -> list:
    """Every array gathered through the same permutation."""
    return [a[order] for a in arrays]


def _exchange_and_merge(
    comm: Communicator, run: list, cuts: np.ndarray, held: int
) -> list:
    """Step 4 for one column: send ``run``'s blocks to their destinations
    and merge the received sorted runs.  ``held`` is what the caller
    keeps alive meanwhile, in bytes, for the memory tracker."""
    runs = exchange_blocks(comm, run, cuts)
    del run   # sent: the merge then holds two copies, not three
    merge = lexsort_values_rids(runs[0], runs[1])
    merged = _take(runs, merge)
    comm.perf.add_compute("sort", len(merge) * math.log2(comm.size))
    comm.perf.transient_bytes(held + merge.nbytes + sum(
        x.nbytes for x in runs + merged))
    return merged


def parallel_sample_sort(
    comm: Communicator,
    values: np.ndarray,
    *aligned: np.ndarray,
    rids: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Globally sort entry-aligned arrays by (value, rid): the one-column
    case of :func:`presort_columns`.

    Returns ``(values, rids, *aligned)`` for this rank, globally sorted
    and re-balanced to the exact ⌈N/p⌉ block distribution.
    """
    (out,) = presort_columns(comm, [values], *aligned, rids=rids)
    return out

"""Composite (value, record-id) sort keys.

ScalParC sorts every continuous attribute list once.  We order entries by
the **lexicographic pair (value, record id)**: the record id tiebreak makes
the global order a *total* order, which in turn makes every stage of the
pipeline — splitter selection, partitioning, merging, and ultimately the
induced tree — bit-for-bit deterministic regardless of processor count.

A fragment in record order has ascending rids, so its (value, rid) order
is the stable sort of its values: :func:`stable_argsort` gets it from
numpy's unstable (SIMD) argsort and puts each run of equal values back in
position order, breaking ties by position rather than by sorting a second
key (Axtmann et al., *Practical Massively Parallel Sorting*).
"""

from __future__ import annotations

import numpy as np

__all__ = ["lexsort_values_rids", "stable_argsort", "count_below",
           "is_sorted_pairs"]


def stable_argsort(values: np.ndarray) -> np.ndarray:
    """The permutation ``np.argsort(values, kind="stable")`` returns, from
    numpy's default (unstable) argsort plus a tie repair.

    After the unstable sort, equal values sit in runs in arbitrary order
    (NaNs, sorted last, count as equal to each other; −0.0 equals +0.0).
    Only the members of those runs are repaired: one sort of the key
    ``run << b | index`` (``b`` bits hold any index) puts every run's
    indices in ascending order without moving the runs.  Columns of 2³¹
    entries or more, and dtypes other than integer and float, take
    the stable sort itself.
    """
    n = len(values)
    if n >= 1 << 31 or values.dtype.kind not in "iuf":
        return np.argsort(values, kind="stable")
    order = np.argsort(values)
    if n < 2:
        return order
    sv = values[order]
    tie = sv[1:] == sv[:-1]
    if sv.dtype.kind == "f" and np.isnan(sv[-1]):   # NaNs sort last
        tie[n - np.count_nonzero(np.isnan(sv)):] = True
    del sv
    if not tie.any():
        return order
    # member[i]: position i is in a run; start[i]: ... and opens it
    member = np.zeros(n, dtype=bool)
    member[1:] = tie
    start = member.copy()
    member[:-1] |= tie
    start ^= member
    bits = n.bit_length()
    key = np.cumsum(start[member], dtype=np.int64)
    del start
    key <<= bits
    key |= order[member]
    key.sort()
    key &= (1 << bits) - 1
    order[member] = key
    return order


def lexsort_values_rids(values: np.ndarray, rids: np.ndarray) -> np.ndarray:
    """Permutation sorting entries by (value, rid) ascending.

    Ascending rids — a fragment in record order, every local sort of the
    Presort — make the (value, rid) order the stable order of the values:
    :func:`stable_argsort` gives it.  Otherwise one run-aware stable sort
    (timsort) of the value alone is tried: when equal values already
    appear in rid order — sorted runs concatenated in rid-block order, the
    merge after the exchange — that is the (value, rid) order, and a
    stable sort of p sorted runs is a merge, which timsort does faster
    than an unstable sort repairs it.  :func:`is_sorted_pairs` confirms
    it, and only when that fails (permuted rids, NaNs) are both keys
    sorted.
    """
    if np.all(rids[:-1] < rids[1:]):
        return stable_argsort(values)
    order = np.argsort(values, kind="stable")
    if is_sorted_pairs(values[order], rids[order]):
        return order
    # np.lexsort sorts by the LAST key as primary
    return np.lexsort((rids, values))


def count_below(values: np.ndarray, rids: np.ndarray,
                split_value: float, split_rid: int) -> int:
    """Number of local entries with key strictly below (split_value,
    split_rid), assuming (values, rids) are already (value, rid)-sorted.

    Used to place sample-sort splitters exactly, including inside runs of
    duplicate values.
    """
    lo = int(np.searchsorted(values, split_value, side="left"))
    hi = int(np.searchsorted(values, split_value, side="right"))
    if lo == hi:
        return lo
    return lo + int(np.searchsorted(rids[lo:hi], split_rid, side="left"))


def is_sorted_pairs(values: np.ndarray, rids: np.ndarray) -> bool:
    """True if the sequence of (value, rid) pairs is non-decreasing."""
    if len(values) <= 1:
        return True
    v_ok = values[:-1] <= values[1:]
    tie = values[:-1] == values[1:]
    r_ok = rids[:-1] < rids[1:]
    return bool(np.all(v_ok & (~tie | r_ok)))

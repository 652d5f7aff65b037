"""Composite (value, record-id) sort keys.

ScalParC sorts every continuous attribute list once.  We order entries by
the **lexicographic pair (value, record id)**: the record id tiebreak makes
the global order a *total* order, which in turn makes every stage of the
pipeline — splitter selection, partitioning, merging, and ultimately the
induced tree — bit-for-bit deterministic regardless of processor count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lexsort_values_rids", "count_below", "is_sorted_pairs"]


def lexsort_values_rids(values: np.ndarray, rids: np.ndarray) -> np.ndarray:
    """Permutation sorting entries by (value, rid) ascending.

    Tries one run-aware stable sort on the value alone first: whenever
    equal values already appear in rid order — a fragment in record
    order, or sorted runs concatenated in rid-block order, which is all
    Presort ever sorts — that *is* the (value, rid) order, and a stable
    sort of p sorted runs is a merge.  Ascending input rids guarantee it;
    otherwise :func:`is_sorted_pairs` confirms it, and only when that
    fails (permuted rids, NaNs) are both keys sorted.
    """
    order = np.argsort(values, kind="stable")
    if np.all(rids[:-1] < rids[1:]) \
            or is_sorted_pairs(values[order], rids[order]):
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

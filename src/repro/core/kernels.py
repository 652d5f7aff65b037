"""Segment-vectorized numpy kernels for the induction hot path.

Every per-record / per-node Python loop that survived on the FindSplit and
PerformSplit paths funnels through this module: one numpy pass over
segment-contiguous arrays per kernel (cumsums over class one-hots,
``np.minimum.reduceat`` segmented argmins, radix-friendly counting
sorts).  The scalar/looped formulations they replaced are test oracles
(``tests/kernel_oracles.py``); every caller reaches a kernel through this
module's attribute, so the test suite can swap the oracles in for a
whole fit.

**Memory-layout contract** (shared by every kernel and documented in
``docs/kernels.md``): attribute-list fragments are entry-aligned arrays
whose entries are grouped into contiguous per-node segments by a CSR
``offsets`` vector, so the per-entry node index is non-decreasing.  Any
``groups`` argument below must be non-decreasing; any per-entry arrays
must be aligned.

**Determinism contract**: for identical inputs, each kernel and its
oracle return bit-identical outputs — integer kernels are exact, and the
float kernels evaluate the same elementwise expressions over the same
operands in the same reduction order, so exact-mode trees and collective
trace digests are invariant under the swap.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from .criteria import split_score_from_left

__all__ = [
    "forced_kernel_mode",
    "segment_class_prefix",
    "boundary_valid_mask",
    "split_scores",
    "segment_argmin",
    "multiway_scores",
    "stable_regroup",
]


class forced_kernel_mode(nullcontext):
    """No-op context manager kept for callers that pin the kernel family:
    ``"fast"`` is the only one, anything else is a ``ValueError``."""

    def __init__(self, mode: str) -> None:
        if mode != "fast":
            raise ValueError(f"the only kernel mode is 'fast', got {mode!r}")
        super().__init__()


# ---------------------------------------------------------------------------
# segment-cumsum over class one-hots
# ---------------------------------------------------------------------------

def segment_class_prefix(
    labels: np.ndarray,
    offsets: np.ndarray,
    n_classes: int,
    nodes: np.ndarray | None = None,
) -> np.ndarray:
    """Within-segment *exclusive* per-class counts of every entry.

    ``out[i, j]`` = number of entries before ``i`` **in i's segment**
    with label ``j`` — the left count matrix FindSplitII needs at every
    candidate position, for all segments in one pass.

    Fast path: one exclusive cumsum over the (n_classes, n) one-hot
    (row-contiguous, so the reduction runs along cache lines), then one
    gather subtracting each segment's base row.  Integer math, so
    bit-identical to the per-segment oracle.
    """
    n = len(labels)
    if n == 0:
        return np.zeros((0, n_classes), dtype=np.int64)
    if nodes is None:
        nodes = np.repeat(
            np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets)
        )
    if n_classes == 2:
        # binary labels: one cumsum of the labels IS the class-1 count,
        # and class 0 is the position-in-segment complement — all integer
        # identities, so still bit-identical to the general path
        within1 = np.cumsum(labels) - labels
        seg_starts = np.minimum(offsets[:-1], n - 1)
        within1 = within1 - within1[seg_starts].take(nodes)
        pos = np.arange(n, dtype=np.int64) - offsets[:-1].take(nodes)
        out = np.empty((n, 2), dtype=np.int64)
        out[:, 1] = within1
        out[:, 0] = pos - within1
        return out
    onehot = (labels == np.arange(n_classes)[:, None]).astype(np.int64)
    excl = np.cumsum(onehot, axis=1)
    excl -= onehot
    excl = excl.T
    seg_starts = np.minimum(offsets[:-1], max(n - 1, 0))
    excl -= excl[seg_starts].take(nodes, axis=0)
    return excl


# ---------------------------------------------------------------------------
# candidate-validity masking
# ---------------------------------------------------------------------------

def boundary_valid_mask(
    values: np.ndarray,
    nodes: np.ndarray,
    offsets: np.ndarray,
    candidate_nodes: np.ndarray,
    has_pred: np.ndarray,
    pred_val: np.ndarray,
) -> np.ndarray:
    """Valid-split mask over one continuous fragment's entries.

    Position ``i`` is a valid candidate iff its node is a candidate and
    its (global) predecessor value is strictly smaller — splits never
    land inside a run of duplicates.  ``has_pred``/``pred_val`` carry the
    cross-rank boundary resolution (the KEEP_LAST exscan's result).
    """
    n = len(values)
    prev_val = np.empty(n, dtype=np.float64)
    prev_val[1:] = values[:-1]
    if n:
        prev_val[0] = np.nan
    seg_sizes = np.diff(offsets)
    starts = offsets[:-1][seg_sizes > 0]
    is_seg_start = np.zeros(n, dtype=bool)
    is_seg_start[starts] = True
    prev_val[starts] = pred_val[nodes[starts]]
    # NaN predecessors only occur at segment starts without predecessors,
    # which the has_pred clause already rejects; the where() keeps the
    # comparison well-defined.
    return (
        candidate_nodes[nodes]
        & (is_seg_start <= has_pred[nodes])  # seg start needs a predecessor
        & (values > np.where(np.isnan(prev_val), -np.inf, prev_val))
    )


# ---------------------------------------------------------------------------
# criterion evaluation — all split points, all nodes, one pass
# ---------------------------------------------------------------------------

def split_scores(
    left: np.ndarray, totals: np.ndarray, criterion: str
) -> np.ndarray:
    """Weighted split impurity of every candidate position at once.

    Thin alias of :func:`repro.core.criteria.split_score_from_left` — the
    determinism-contract implementation is already a single batched pass;
    it is re-exported here so the kernel inventory is complete and the
    property suite pins it against the scalar oracle.
    """
    return split_score_from_left(left, totals, criterion)


# ---------------------------------------------------------------------------
# segmented argmin
# ---------------------------------------------------------------------------

def segment_argmin(
    groups: np.ndarray, scores: np.ndarray, tiebreak: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group lexicographic minimum of ``(score, tiebreak)``.

    ``groups`` must be non-decreasing (the segment contract).  Returns
    ``(unique_groups, best_score, best_tiebreak)`` — for every occurring
    group, the smallest score and, among entries achieving it, the
    smallest tiebreak.  The fast path is two ``np.minimum.reduceat``
    passes (O(n)); the oracle is the 3-key lexsort + ``np.unique``
    formulation it replaced (O(n log n) with three key passes).
    """
    n = len(groups)
    if n == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.astype(np.float64), e.astype(np.float64)
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(groups[1:], groups[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    uniq = groups[starts]
    best = np.minimum.reduceat(scores, starts)
    run_lengths = np.diff(np.append(starts, n))
    tied = scores == np.repeat(best, run_lengths)
    best_tb = np.minimum.reduceat(
        np.where(tied, tiebreak, np.inf), starts
    )
    return uniq, best, best_tb


# ---------------------------------------------------------------------------
# categorical multiway scoring — all nodes at once
# ---------------------------------------------------------------------------

def multiway_scores(cubes: np.ndarray, criterion: str) -> np.ndarray:
    """Multiway categorical split scores of many nodes in one pass.

    ``cubes`` is an (m, n_values, c) stack of per-node count matrices;
    returns (m,) scores with ``inf`` where fewer than two values occur
    (no valid split).  Bit-identical to calling
    :func:`~repro.core.criteria.split_score_multiway` per node: the same
    elementwise expressions run over the same operands, and the axis
    reductions traverse each row's contiguous elements in the same
    order.
    """
    mat = np.asarray(cubes, dtype=np.float64)
    m = mat.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.float64)
    part_sizes = mat.sum(axis=2)                        # (m, V)
    occupied = (part_sizes > 0.0).sum(axis=1)
    n = part_sizes.sum(axis=1)
    from .criteria import impurity

    imps = impurity(
        mat.reshape(-1, mat.shape[2]), criterion
    ).reshape(m, mat.shape[1])
    safe_n = np.maximum(n, 1.0)                         # guards empty nodes
    out = np.sum((part_sizes / safe_n[:, None]) * imps, axis=1)
    return np.where(occupied >= 2, out, np.inf)


# ---------------------------------------------------------------------------
# stable counting regroup (reorder / reshard)
# ---------------------------------------------------------------------------

def stable_regroup(
    new_nodes: np.ndarray, n_next: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gather plan of a stable regroup by next-node id, dropping ids < 0.

    Returns ``(take, offsets)``: applying ``arr[take]`` to every
    entry-aligned array yields the entries grouped by node id in stable
    (original-relative) order, and ``offsets`` is the resulting CSR
    bound vector.  The fast path narrows the sort key so numpy's stable
    argsort dispatches to radix sort (int16 whenever the id range fits),
    and fuses the drop-filter into the gather index so every payload
    array pays exactly one fancy-index pass.
    """
    idx = np.flatnonzero(new_nodes >= 0)
    kept = new_nodes[idx]
    if n_next <= (1 << 15):
        key = kept.astype(np.int16)
    elif n_next <= (1 << 31):
        key = kept.astype(np.int32)
    else:
        key = kept
    take = idx[np.argsort(key, kind="stable")]
    counts = np.bincount(kept, minlength=n_next)
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return take, offsets

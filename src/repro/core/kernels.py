"""Segment-vectorized numpy kernels for the induction hot path.

Every per-record / per-node Python loop that survived on the FindSplit and
PerformSplit paths funnels through this module: one numpy pass over
segment-contiguous arrays per kernel (per-class cumsums,
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
trace digests are invariant under the swap.  The one kernel that prunes,
:func:`class_boundary_cuts`, has the full scan as its oracle (every
valid cut kept): the two differ in the cuts they keep, never in the
candidate rows scored from them.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from .criteria import split_score_from_left

__all__ = [
    "forced_kernel_mode",
    "segment_class_prefix",
    "class_boundary_cuts",
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
# within-segment class prefix counts
# ---------------------------------------------------------------------------

def segment_class_prefix(
    labels: np.ndarray,
    offsets: np.ndarray,
    n_classes: int,
    nodes: np.ndarray | None = None,
    at: np.ndarray | None = None,
) -> np.ndarray:
    """Within-segment *exclusive* per-class counts of every entry, or of
    the entries at positions ``at``.

    ``out[k, j]`` = number of entries before position ``at[k]`` (every
    position when ``at`` is ``None``) **in its segment** with label
    ``j`` — the left count matrix FindSplitII needs at a candidate cut.

    One exclusive cumsum per class past the first, gathered at the
    wanted positions and at their segments' starts; class 0 is the
    position-in-segment complement.  For two classes that is one cumsum
    of the labels themselves.  Integer math, so bit-identical to the
    per-segment oracle.
    """
    n = len(labels)
    if n == 0:
        return np.zeros((0, n_classes), dtype=np.int64)
    if nodes is None:
        nodes = np.repeat(
            np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets)
        )
    if at is None:
        pos, seg = np.arange(n, dtype=np.int64), nodes
    else:
        pos, seg = at, nodes.take(at)
    # clamped so a trailing empty segment's start stays a legal index;
    # only nonempty segments' starts are gathered through ``seg``
    seg_starts = np.minimum(offsets[:-1], n - 1)
    rest = pos - offsets[:-1].take(seg)        # position in the segment
    out = np.empty((len(pos), n_classes), dtype=np.int64)
    for j in range(1, n_classes):
        hits = labels if n_classes == 2 else (labels == j)
        excl = np.cumsum(hits, dtype=np.int64) - hits
        col = excl if at is None else excl.take(at)
        col -= excl[seg_starts].take(seg)     # the gather runs first
        out[:, j] = col
        rest -= col
    out[:, 0] = rest
    return out


# ---------------------------------------------------------------------------
# class-boundary cut pruning
# ---------------------------------------------------------------------------

def class_boundary_cuts(
    valid: np.ndarray,
    values: np.ndarray,
    labels: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """The valid cuts that can win: ``valid`` minus every cut inside a
    pure-class run.

    Entries of equal value in one segment form a *value group*; a valid
    cut opens a group.  The cut opening group *g* is dropped when groups
    *g − 1* and *g* are both pure in the same class (no label changes
    from the start of *g − 1* to the end of *g*) and neither of them
    holds its segment's first or last entry.  Along such a run only one
    class moves left, where gini and entropy are strictly concave, so the
    dropped cut scores strictly worse than the better of the kept cuts
    bracketing its run (or ties at 0.0 with them in a pure node, where
    the segment's first cut, always kept, wins on threshold).  The edge
    groups keep their cuts because a run may continue on the neighbouring
    rank: this rank's own best cut, and so its BEST_SPLIT row, is the
    one the full scan finds.

    Fast path: with no two equal neighbouring values every group is one
    entry, and the rule reads ``labels[i - 1] == labels[i]`` away from
    the edges.  Otherwise it runs over the group starts, with one
    segmented ``logical_or.reduceat`` finding the groups whose label
    changes inside them.
    """
    n = len(valid)
    keep = valid.copy()
    # edge[i]: position i opens a segment (edge[n] closes the last one)
    edge = np.zeros(n + 1, dtype=bool)
    edge[offsets] = True
    same_value = values[1:] == values[:-1]
    same_label = labels[1:] == labels[:-1]
    if not same_value.any():
        # every entry is its own group: cut i drops iff entries i - 1 and
        # i share a label, i - 1 does not open the segment, i does not
        # open one either (so i - 1 is in it) and i does not close it
        drop = same_label[:-1] & ~(edge[:-3] | edge[1:-2] | edge[2:-1])
        keep[1:-1] &= ~drop
        return keep
    opens = edge[:n].copy()                   # opens[i]: i opens a group
    opens[1:] |= ~same_value
    starts = np.flatnonzero(opens)
    change = np.empty(n, dtype=bool)          # label differs from i - 1
    change[0] = False
    np.logical_not(same_label, out=change[1:])
    # mixed[k]: group k changes label after its first entry
    mixed = np.logical_or.reduceat(change & ~opens, starts)
    first = edge.take(starts)                 # group k opens its segment
    last = np.append(first[1:], True)         # group k closes it
    # the cut opening group k >= 1 drops iff groups k - 1 and k are pure
    # in one class and neither opens or closes the segment
    drop = ~(mixed[:-1] | mixed[1:] | change.take(starts[1:])
             | first[:-1] | first[1:] | last[1:])
    keep[starts[1:][drop]] = False
    return keep


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
    cross-rank boundary resolution (the KEEP_LAST exscan's result).  A
    NaN predecessor compares as −inf; a segment start without a
    predecessor is never valid.

    One ``greater`` pass against the left neighbour writes the mask in
    place; the non-empty segments' starts are then overwritten from
    ``has_pred``/``pred_val`` (O(m)), NaN predecessors re-compared
    against −inf only when the fragment holds a NaN, and the candidate
    mask ANDed in once.
    """
    n = len(values)
    out = np.empty(n, dtype=bool)
    if n == 0:
        return out
    np.greater(values[1:], values[:-1], out=out[1:])
    if np.isnan(values.max()):                # max propagates any NaN
        after_nan = np.flatnonzero(np.isnan(values[:-1])) + 1
        out[after_nan] = values[after_nan] > -np.inf
    starts = offsets[:-1][np.diff(offsets) > 0]
    k = nodes[starts]
    pv = pred_val[k]
    out[starts] = has_pred[k] & (
        values[starts] > np.where(np.isnan(pv), -np.inf, pv))
    if not candidate_nodes.all():
        out &= candidate_nodes[nodes]
    return out


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
    bound vector.  The sort key is ``id + 1`` narrowed to an unsigned
    width numpy's stable argsort radix-sorts: dropped ids become key 0,
    sort first and are sliced off the plan, so every payload array pays
    exactly one fancy-index pass.  Up to 65 535 next-level nodes the key
    is uint16 (one radix sort); past that it is sorted as two stable
    uint16 halves, low then high (:func:`_radix_argsort_u32`).  The
    offsets are read off the sorted key: a binary search for the end of
    each key ``0 … n_next`` (in the key's own dtype, so 65 535 next-level
    nodes still fit the uint16 key).
    """
    if n_next < (1 << 16):
        key = np.add(new_nodes, 1, dtype=np.uint16, casting="unsafe")
        take = np.argsort(key, kind="stable")
    elif n_next < (1 << 32):
        key = np.add(new_nodes, 1, dtype=np.uint32, casting="unsafe")
        take = _radix_argsort_u32(key)
    else:
        key = np.asarray(new_nodes) + 1
        take = np.argsort(key, kind="stable")
    ends = np.searchsorted(key.take(take),
                           np.arange(n_next + 1, dtype=key.dtype),
                           side="right")
    dropped = ends[0]
    return take[dropped:], (ends - dropped).astype(np.int64, copy=False)


def _radix_argsort_u32(key: np.ndarray) -> np.ndarray:
    """Stable argsort of a uint32 key as two stable uint16 radix sorts
    (least-significant half first): numpy's stable argsort of a 32-bit
    key is a timsort, several times slower per entry."""
    order = np.argsort(key.astype(np.uint16), kind="stable")
    high = (key >> 16).astype(np.uint16).take(order)
    return order.take(np.argsort(high, kind="stable"))

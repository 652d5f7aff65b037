"""Test oracles of the columnar kernels (``repro.core.kernels``).

Each ``*_reference`` function is the scalar/looped formulation a fast
kernel replaced, kept bit-identical to it: the property suite pins
``kernel ≡ oracle`` on random segment layouts, and the ``kernel_oracles``
fixture (``tests/conftest.py``) swaps all seven into ``repro.core.kernels``
so a whole fit can be checked event for event.  The two consumers with
their own vectorized paths have oracles here too:
:func:`reshard_one_attribute_reference` (the checkpoint re-shard) and
:func:`categorical_children_reference` (PerformSplitI's categorical
rid→child routing).  :func:`boundary_valid_mask_prior_reference` is
the vectorized mask body the single-pass kernel replaced, kept as the
bit-identity oracle over NaN and ±inf values (where the scalar walk
reads a NaN predecessor differently).
"""

from __future__ import annotations

import numpy as np

from repro.core.attribute_lists import LocalAttributeList
from repro.core.criteria import split_score_from_left, split_score_multiway
from repro.datagen.schema import AttributeSpec


def segment_class_prefix_reference(
    labels: np.ndarray,
    offsets: np.ndarray,
    n_classes: int,
    nodes: np.ndarray | None = None,
    at: np.ndarray | None = None,
) -> np.ndarray:
    """Scalar reference: running per-class counters, one segment at a
    time (the shape of the pre-vectorization loop), then the rows at
    ``at``.  ``nodes`` matches the kernel's signature and is unused."""
    out = np.zeros((len(labels), n_classes), dtype=np.int64)
    for k in range(len(offsets) - 1):
        counts = [0] * n_classes
        for i in range(int(offsets[k]), int(offsets[k + 1])):
            out[i] = counts
            counts[int(labels[i])] += 1
    return out if at is None else out[at]


def class_boundary_cuts_reference(
    valid: np.ndarray,
    values: np.ndarray,
    labels: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """The full scan: every valid cut is kept and scored.  With this
    oracle swapped in, FindSplitII scores every valid position, as the
    paper's scan does."""
    return valid.copy()


def boundary_valid_mask_reference(
    values: np.ndarray,
    nodes: np.ndarray,
    offsets: np.ndarray,
    candidate_nodes: np.ndarray,
    has_pred: np.ndarray,
    pred_val: np.ndarray,
) -> np.ndarray:
    """Scalar reference: walk each segment tracking the previous value."""
    out = np.zeros(len(values), dtype=bool)
    for k in range(len(offsets) - 1):
        lo, hi = int(offsets[k]), int(offsets[k + 1])
        for i in range(lo, hi):
            if not candidate_nodes[k]:
                continue
            if i == lo:
                if not has_pred[k]:
                    continue
                prev = float(pred_val[k])
            else:
                prev = float(values[i - 1])
            if float(values[i]) > prev:
                out[i] = True
    return out


def boundary_valid_mask_prior_reference(
    values: np.ndarray,
    nodes: np.ndarray,
    offsets: np.ndarray,
    candidate_nodes: np.ndarray,
    has_pred: np.ndarray,
    pred_val: np.ndarray,
) -> np.ndarray:
    """The vectorized body the single-``greater`` kernel replaced: a
    shifted copy with NaN predecessors read as −inf, per-entry gathers
    of the node flags and a segment-start mask.  Unlike the scalar walk
    above it reads a NaN predecessor as −inf, which the kernel must
    match bit for bit."""
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
    return (
        candidate_nodes[nodes]
        & (is_seg_start <= has_pred[nodes])
        & (values > np.where(np.isnan(prev_val), -np.inf, prev_val))
    )


def split_scores_reference(
    left: np.ndarray, totals: np.ndarray, criterion: str
) -> np.ndarray:
    """Scalar reference: one candidate row at a time."""
    left = np.asarray(left)
    totals = np.broadcast_to(np.asarray(totals), left.shape)
    return np.array([
        float(split_score_from_left(left[i:i + 1], totals[i:i + 1],
                                    criterion)[0])
        for i in range(left.shape[0])
    ])


def segment_argmin_reference(
    groups: np.ndarray, scores: np.ndarray, tiebreak: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pre-vectorization formulation: full 3-key lexsort, then the
    first hit per group."""
    order = np.lexsort((tiebreak, scores, groups))
    first = np.unique(groups[order], return_index=True)[1]
    pick = order[first]
    return groups[order][first], scores[pick], tiebreak[pick]


def multiway_scores_reference(cubes: np.ndarray, criterion: str) -> np.ndarray:
    """Scalar reference: one :func:`split_score_multiway` call per node."""
    cubes = np.asarray(cubes)
    return np.array([
        split_score_multiway(cubes[k], criterion)
        for k in range(cubes.shape[0])
    ])


def stable_regroup_reference(
    new_nodes: np.ndarray, n_next: int
) -> tuple[np.ndarray, np.ndarray]:
    """The pre-vectorization plan: boolean keep-mask, then a full-width
    stable argsort of the kept ids."""
    keep = new_nodes >= 0
    kept = new_nodes[keep]
    perm = np.argsort(kept, kind="stable")
    take = np.flatnonzero(keep)[perm]
    counts = np.bincount(kept, minlength=n_next)
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return take, offsets


def reshard_one_attribute_reference(
    spec: AttributeSpec,
    attr_index: int,
    fragments: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    rank: int,
    size: int,
) -> LocalAttributeList:
    """The doubly nested per-node list rebuild
    ``attribute_lists._reshard_one_attribute``'s vectorized path
    replaced."""
    m = max(len(offsets) - 1 for (_v, _r, _l, offsets) in fragments)
    per_node_values: list[list[np.ndarray]] = [[] for _ in range(m)]
    per_node_rids: list[list[np.ndarray]] = [[] for _ in range(m)]
    per_node_labels: list[list[np.ndarray]] = [[] for _ in range(m)]
    for values, rids, labels, offsets in fragments:
        for k in range(len(offsets) - 1):
            lo, hi = int(offsets[k]), int(offsets[k + 1])
            if hi > lo:
                per_node_values[k].append(values[lo:hi])
                per_node_rids[k].append(rids[lo:hi])
                per_node_labels[k].append(labels[lo:hi])

    node_sizes = np.array(
        [sum(len(part) for part in parts) for parts in per_node_values],
        dtype=np.int64,
    )
    total = int(node_sizes.sum())
    chunk = -(-total // size) if total else 0
    lo = min(rank * chunk, total)
    hi = min(lo + chunk, total)

    if hi > lo:
        g_values = np.concatenate(
            [part for parts in per_node_values for part in parts]
        )[lo:hi]
        g_rids = np.concatenate(
            [part for parts in per_node_rids for part in parts]
        )[lo:hi]
        g_labels = np.concatenate(
            [part for parts in per_node_labels for part in parts]
        )[lo:hi]
        node_of = np.repeat(np.arange(m, dtype=np.int64), node_sizes)[lo:hi]
        counts = np.bincount(node_of, minlength=m)
    else:
        g_values = np.empty(0, dtype=fragments[0][0].dtype)
        g_rids = np.empty(0, dtype=np.int64)
        g_labels = np.empty(0, dtype=np.int64)
        counts = np.zeros(m, dtype=np.int64)

    return LocalAttributeList(
        spec=spec,
        attr_index=attr_index,
        values=g_values,
        rids=g_rids,
        labels=g_labels,
        offsets=np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
    )


def categorical_children_reference(alist, decisions):
    """PerformSplitI's categorical rid→child routing one splitting node at
    a time (``splitter._local_children``'s per-node mask loop before the
    scatter table); returns (entry idx, next-level ids)."""
    mine = decisions.splitting & (decisions.winner_attr == alist.attr_index)
    sel_entries: list[np.ndarray] = []
    sel_ids: list[np.ndarray] = []
    for k in np.nonzero(mine)[0]:
        seg = alist.segment(k)
        if seg.stop == seg.start:
            continue
        mapping = decisions.cat_layouts[int(k)]
        child = mapping[alist.values[seg].astype(np.int64)]
        sel_entries.append(np.arange(seg.start, seg.stop, dtype=np.int64))
        sel_ids.append(decisions.child_base[k] + child.astype(np.int64))
    if not sel_entries:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(sel_entries), np.concatenate(sel_ids)


#: kernel name in ``repro.core.kernels`` -> its oracle
ORACLES = {
    "segment_class_prefix": segment_class_prefix_reference,
    "class_boundary_cuts": class_boundary_cuts_reference,
    "boundary_valid_mask": boundary_valid_mask_reference,
    "split_scores": split_scores_reference,
    "segment_argmin": segment_argmin_reference,
    "multiway_scores": multiway_scores_reference,
    "stable_regroup": stable_regroup_reference,
}

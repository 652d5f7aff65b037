"""Serial golden-reference decision-tree inducer.

A straightforward single-machine implementation of the §2 induction
process: recursively split on the candidate minimizing the split impurity,
re-sorting continuous attributes at every node (the CART/C4.5 strategy the
paper contrasts with SPRINT's presort — fine here because this
implementation exists for *semantics*, not performance).

It shares the impurity kernels (:mod:`repro.core.criteria`) and the
canonical candidate order (:mod:`repro.core.splits`) with ScalParC, so for
any dataset and configuration it produces **exactly** the tree ScalParC
produces on any processor count.  The test suite leans on this as its
main correctness oracle.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.config import InductionConfig
from ..core.criteria import (
    best_categorical_split,
    impurity,
    split_score_from_left,
)
from ..core.splits import (
    NO_CANDIDATE,
    candidate_beats,
    categorical_children_layout,
    encode_mask,
)
from ..datagen.schema import Dataset, check_training_values
from ..tree.compile import (
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    KIND_LEAF,
    assemble_table,
)
from ..tree.model import DecisionTree

__all__ = ["induce_serial", "best_split_for_counts"]


def _continuous_candidate(
    values: np.ndarray,
    rids: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
    config: InductionConfig,
) -> tuple[float, float] | None:
    """Best (score, threshold) for one continuous attribute at one node.

    Scans candidate positions of the (value, rid)-sorted list — exactly the
    ScalParC FindSplit scan, collapsed to one machine.
    """
    order = np.lexsort((rids, values))
    v = values[order]
    lab = labels[order]
    n = len(v)
    if n < 2:
        return None
    c = len(counts)
    left = np.empty((n, c), dtype=np.int64)
    for j in range(c):
        cum = np.cumsum(lab == j)
        left[1:, j] = cum[:-1]
    left[0, :] = 0
    valid = np.empty(n, dtype=bool)
    valid[0] = False  # left partition would be empty
    valid[1:] = v[1:] > v[:-1]
    if not valid.any():
        return None
    scores = split_score_from_left(left[valid], counts, config.criterion)
    pos = int(np.argmin(scores))  # first minimum = smallest threshold
    return float(scores[pos]), float(v[valid][pos])


def best_split_for_counts(
    matrix: np.ndarray, config: InductionConfig
) -> tuple[float, np.ndarray | None]:
    """Config-bound wrapper over
    :func:`repro.core.criteria.best_categorical_split`."""
    return best_categorical_split(
        matrix,
        config.criterion,
        binary_subsets=config.categorical_binary_subsets,
        exhaustive_limit=config.subset_exhaustive_limit,
    )


def induce_serial(dataset: Dataset,
                  config: InductionConfig | None = None) -> DecisionTree:
    """Induce a decision tree serially (the golden reference).

    Iterative (a FIFO queue of nodes), so arbitrarily deep trees do not
    hit the Python recursion limit, and nodes are settled in
    breadth-first order — the order their table rows take.
    """
    config = config or InductionConfig()
    if dataset.n_records == 0:
        raise ValueError("cannot induce a tree from an empty dataset")
    check_training_values(dataset)
    schema = dataset.schema
    c = schema.n_classes
    columns = dataset.columns
    labels = dataset.labels.astype(np.int64)

    rows: dict[str, list] = {name: [] for name in (
        "kind", "feature", "threshold", "class_counts", "n_records",
        "leaf_label", "default_child", "n_children", "fanout")}
    slots: list[np.ndarray] = []

    def emit(**row) -> None:
        for name, value in row.items():
            rows[name].append(value)

    # (record indices, depth, the parent's majority class): an empty
    # child of a multiway categorical split has all-zero counts, which
    # would argmax to class 0 — it inherits its parent's majority instead
    # (mirrors the level loop)
    queue = deque([(np.arange(dataset.n_records, dtype=np.int64), 0, 0)])
    while queue:
        idx, depth, inherited = queue.popleft()
        counts = np.bincount(labels[idx], minlength=c)
        n = len(idx)
        leaf = dict(kind=KIND_LEAF, feature=-1, threshold=np.nan,
                    class_counts=counts, n_records=n,
                    leaf_label=int(np.argmax(counts)) if n else inherited,
                    default_child=0, n_children=0, fanout=0)

        terminal = (
            int(counts.max()) == n
            or n < config.min_split_records
            or (config.max_depth is not None and depth >= config.max_depth)
        )
        if terminal:
            emit(**leaf)
            continue

        # --- find the best candidate over all attributes -------------------
        best = np.array(NO_CANDIDATE)
        best_mask: np.ndarray | None = None
        best_matrix: np.ndarray | None = None
        for a, spec in enumerate(schema):
            if spec.is_continuous:
                cand = _continuous_candidate(
                    columns[a][idx], idx, labels[idx], counts, config
                )
                if cand is None:
                    continue
                row = np.array([cand[0], float(a), cand[1]])
                if candidate_beats(row, best):
                    best = row
            else:
                matrix = np.bincount(
                    columns[a][idx].astype(np.int64) * c + labels[idx],
                    minlength=spec.n_values * c,
                ).reshape(spec.n_values, c)
                score, mask = best_split_for_counts(matrix, config)
                if not np.isfinite(score):
                    continue
                code = encode_mask(mask) if mask is not None else 0.0
                row = np.array([score, float(a), code])
                if candidate_beats(row, best):
                    best = row
                    best_mask = mask
                    best_matrix = matrix

        score = float(best[0])
        parent_imp = float(impurity(counts, config.criterion))
        if not np.isfinite(score) or parent_imp - score < config.min_improvement:
            emit(**leaf)
            continue

        attr = int(best[1])
        majority = int(np.argmax(counts))
        if schema[attr].is_continuous:
            threshold = float(best[2])
            emit(**leaf | dict(kind=KIND_CONTINUOUS, feature=attr,
                               threshold=threshold, leaf_label=-1,
                               n_children=2, fanout=2))
            slots.append(np.array([0, 1]))
            go_left = columns[attr][idx] < threshold
            queue.append((idx[go_left], depth + 1, majority))
            queue.append((idx[~go_left], depth + 1, majority))
        else:
            value_to_child, n_children, default = categorical_children_layout(
                best_matrix, best_mask
            )
            emit(**leaf | dict(kind=KIND_CATEGORICAL, feature=attr,
                               leaf_label=-1, default_child=default,
                               n_children=n_children,
                               fanout=len(value_to_child)))
            slots.append(value_to_child)
            child_of = value_to_child[columns[attr][idx].astype(np.int64)]
            for child in range(n_children):
                queue.append((idx[child_of == child], depth + 1, majority))

    return assemble_table(
        schema, **rows, slot_child=np.concatenate(slots) if slots else (),
    ).to_tree()

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
from ..tree.model import (
    CategoricalSplit,
    ContinuousSplit,
    DecisionTree,
    Leaf,
    TreeNode,
)

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

    Iterative (explicit stack), so arbitrarily deep trees do not hit the
    Python recursion limit.
    """
    config = config or InductionConfig()
    if dataset.n_records == 0:
        raise ValueError("cannot induce a tree from an empty dataset")
    check_training_values(dataset)
    schema = dataset.schema
    c = schema.n_classes
    columns = dataset.columns
    labels = dataset.labels.astype(np.int64)
    all_rids = np.arange(dataset.n_records, dtype=np.int64)

    # (record indices, depth, parent node or None, child slot)
    root_holder: list[TreeNode] = [None]  # type: ignore[list-item]
    stack: list[tuple[np.ndarray, int, TreeNode | None, int]] = [
        (all_rids, 0, None, 0)
    ]

    def attach(node: TreeNode, parent: TreeNode | None, slot: int) -> None:
        if parent is None:
            root_holder[0] = node
        else:
            parent.children[slot] = node

    while stack:
        idx, depth, parent, slot = stack.pop()
        counts = np.bincount(labels[idx], minlength=c)
        n = len(idx)

        def as_leaf() -> Leaf:
            if n == 0 and parent is not None:
                # empty child of a multiway categorical split: all-zero
                # counts would argmax to class 0 — inherit the parent's
                # majority instead (mirrors induce_worker)
                label = int(np.argmax(parent.class_counts))
            else:
                label = int(np.argmax(counts))
            return Leaf(label=label, n_records=n,
                        class_counts=counts.copy(), depth=depth)

        terminal = (
            int(counts.max()) == n
            or n < config.min_split_records
            or (config.max_depth is not None and depth >= config.max_depth)
        )
        if terminal:
            attach(as_leaf(), parent, slot)
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
            attach(as_leaf(), parent, slot)
            continue

        attr = int(best[1])
        if schema[attr].is_continuous:
            threshold = float(best[2])
            node: TreeNode = ContinuousSplit(
                attr_index=attr, threshold=threshold, n_records=n,
                class_counts=counts.copy(), depth=depth,
                children=[None, None],
            )
            attach(node, parent, slot)
            go_left = columns[attr][idx] < threshold
            stack.append((idx[~go_left], depth + 1, node, 1))
            stack.append((idx[go_left], depth + 1, node, 0))
        else:
            value_to_child, n_children, default = categorical_children_layout(
                best_matrix, best_mask
            )
            node = CategoricalSplit(
                attr_index=attr, value_to_child=value_to_child,
                n_records=n, class_counts=counts.copy(), depth=depth,
                children=[None] * n_children, default_child=default,
            )
            attach(node, parent, slot)
            codes = columns[attr][idx].astype(np.int64)
            child_of = value_to_child[codes]
            for child in range(n_children - 1, -1, -1):
                stack.append((idx[child_of == child], depth + 1, node, child))

    return DecisionTree(schema=schema, root=root_holder[0])

"""Impurity-based feature importance (a standard downstream tree metric).

The importance of attribute a is the total impurity decrease achieved by
nodes splitting on a, each weighted by its share of the training records
(Breiman et al.'s "gini importance"), normalized to sum to 1.  Computed
from the class-count matrices the induced tree already stores, so no data
pass is needed.
"""

from __future__ import annotations

import numpy as np

from ..core.criteria import GINI, impurity
from .compile import KIND_LEAF
from .model import DecisionTree

__all__ = ["feature_importances"]


def feature_importances(tree: DecisionTree,
                        criterion: str = GINI) -> np.ndarray:
    """Normalized per-attribute importances (length = number of
    attributes; zeros for attributes the tree never splits on)."""
    t = tree.compiled()
    raw = np.zeros(len(tree.schema), dtype=np.float64)
    n = t.n_records.astype(np.float64)
    if n[0] == 0:
        return raw
    imp = impurity(t.class_counts, criterion)
    # every node but the root is its parent's child, in child order
    parent = np.repeat(np.arange(t.n_nodes), t.n_children)
    child_term = np.zeros(t.n_nodes)
    np.add.at(child_term, parent, n[1:] / np.maximum(n[parent], 1) * imp[1:])
    split = np.flatnonzero(t.kind != KIND_LEAF)
    np.add.at(raw, t.feature[split],
              n[split] / n[0] * (imp[split] - child_term[split]))
    total = raw.sum()
    return raw / total if total > 0 else raw

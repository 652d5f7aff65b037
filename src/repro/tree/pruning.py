"""Pessimistic-error tree pruning (extension).

The paper concentrates on the induction step and leaves pruning out of
scope (§2); we provide the classic pessimistic-error pruning of
Quinlan/C4.5 as an optional post-pass so downstream users get complete
train→prune→predict functionality.

A subtree is collapsed to a leaf when the leaf's pessimistic error bound
(training errors + ½ continuity correction) does not exceed the sum of its
leaves' bounds — the standard "prune unless the subtree demonstrably earns
its complexity" rule computed purely from training counts, i.e. without a
validation set.
"""

from __future__ import annotations

import numpy as np

from .compile import KIND_LEAF, assemble_table
from .model import DecisionTree

__all__ = ["prune_pessimistic"]


def prune_pessimistic(tree: DecisionTree) -> DecisionTree:
    """Return a pruned copy of the tree (the input is not modified)."""
    t = tree.compiled()
    n = t.n_nodes
    majority = np.argmax(t.class_counts, axis=1)
    # a node's errors as a leaf: its own label if it is one, else its
    # majority class — the bound each subtree is measured against
    label = np.where(t.kind == KIND_LEAF, t.leaf_label, majority)
    as_leaf = (t.n_records - t.class_counts[np.arange(n), label]
               + 0.5).tolist()
    first, n_children = t.first_child.tolist(), t.n_children.tolist()
    # bottom-up (children have larger ids): a subtree's pruned bound
    bound = as_leaf[:]
    collapse = [False] * n
    for v in range(n - 1, -1, -1):
        if n_children[v]:
            subtree = sum(bound[first[v]:first[v] + n_children[v]])
            collapse[v] = as_leaf[v] <= subtree
            bound[v] = as_leaf[v] if collapse[v] else subtree
    # top-down: drop every node under a collapsed one; the kept rows stay
    # breadth-first
    keep = [True] * n
    for v, p in enumerate(np.repeat(np.arange(n), n_children).tolist(), 1):
        keep[v] = keep[p] and not collapse[p]
    keep = np.asarray(keep)
    leaf = (t.kind == KIND_LEAF) | np.asarray(collapse)
    return assemble_table(
        tree.schema, kind=np.where(leaf, KIND_LEAF, t.kind)[keep],
        feature=np.where(leaf, -1, t.feature)[keep],
        threshold=np.where(leaf, np.nan, t.threshold)[keep],
        class_counts=t.class_counts[keep], n_records=t.n_records[keep],
        leaf_label=np.where(leaf, label, -1)[keep],
        default_child=np.where(leaf, 0, t.default_child)[keep],
        n_children=np.where(leaf, 0, t.n_children)[keep],
        fanout=np.where(leaf, 0, t.fanout)[keep],
        slot_child=t.slot_child[np.repeat(keep & ~leaf, t.fanout)],
    ).to_tree()

"""Model-quality and tree-shape statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datagen.schema import Dataset
from .compile import KIND_CATEGORICAL, KIND_CONTINUOUS, KIND_LEAF
from .model import DecisionTree

__all__ = ["accuracy", "confusion_matrix", "TreeSummary", "summarize"]


def accuracy(tree: DecisionTree, dataset: Dataset) -> float:
    """Fraction of records the tree classifies correctly."""
    if dataset.n_records == 0:
        return float("nan")
    return float(np.mean(tree.predict(dataset) == dataset.labels))


def confusion_matrix(tree: DecisionTree, dataset: Dataset) -> np.ndarray:
    """(n_classes, n_classes) matrix: rows true class, columns predicted."""
    c = dataset.schema.n_classes
    pred = tree.predict(dataset)
    return np.bincount(
        dataset.labels.astype(np.int64) * c + pred, minlength=c * c
    ).reshape(c, c)


@dataclass(frozen=True)
class TreeSummary:
    """Shape summary of an induced tree."""

    n_nodes: int
    n_leaves: int
    depth: int
    n_continuous_splits: int
    n_categorical_splits: int

    def __str__(self) -> str:
        return (
            f"{self.n_nodes} nodes ({self.n_leaves} leaves, "
            f"{self.n_continuous_splits} continuous / "
            f"{self.n_categorical_splits} categorical splits), "
            f"depth {self.depth}"
        )


def summarize(tree: DecisionTree) -> TreeSummary:
    """Compute a :class:`TreeSummary` from the tree's node kinds."""
    kinds = np.bincount(tree.compiled().kind, minlength=3)
    return TreeSummary(
        n_nodes=tree.n_nodes,
        n_leaves=int(kinds[KIND_LEAF]),
        depth=tree.depth,
        n_continuous_splits=int(kinds[KIND_CONTINUOUS]),
        n_categorical_splits=int(kinds[KIND_CATEGORICAL]),
    )

"""Vectorized tree prediction.

The public entry points route records through the tree's *compiled*
flat-array form (see :mod:`repro.tree.compile`): the tree is lowered
once per instance (cached on the :class:`DecisionTree`), then every
batch advances all records one level per numpy step — no Python
recursion, so arbitrarily deep trees predict fine and large batches run
at array speed.  (The test suite keeps an index-recursion predictor as
the independent reference the compiled kernel is checked against, bit
for bit.)
"""

from __future__ import annotations

import numpy as np

from .model import DecisionTree

__all__ = ["predict_columns", "predict_proba_columns"]


def _check_width(tree: DecisionTree, columns: list[np.ndarray]) -> None:
    if len(columns) != len(tree.schema):
        raise ValueError(
            f"expected {len(tree.schema)} columns, got {len(columns)}"
        )


def predict_columns(tree: DecisionTree, columns: list[np.ndarray]) -> np.ndarray:
    """Predicted class label per record (records = rows of columns)."""
    _check_width(tree, columns)
    return tree.compiled().predict_columns(columns)


def predict_proba_columns(tree: DecisionTree,
                          columns: list[np.ndarray]) -> np.ndarray:
    """Per-class empirical frequencies of the routed leaf, per record."""
    _check_width(tree, columns)
    return tree.compiled().predict_proba_columns(columns)

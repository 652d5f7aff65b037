"""Decision-tree model produced by tree induction.

A tree consists of internal nodes carrying a splitting decision and leaves
carrying a class label (paper §2).  Two internal-node forms exist, matching
the paper's splitting semantics:

* continuous split on attribute A at value v: left child takes records
  with ``A < v``, right child the rest;
* categorical split on attribute B: one child per *occurring* value of B
  (multiway; footnote-1 binary subset splits are available through the
  induction option and are represented by the same node with a two-entry
  value→child map).

ScalParC settles one whole level per pass of Figure 2, so a tree is
stored the way it is grown: as the breadth-first column table
:class:`~repro.tree.compile.CompiledTree`, one row per node.  There are
no node objects.  All table data is plain and deterministic, so trees
induced by different processor counts (or the serial reference) can be
compared for exact equality — the repo's primary correctness oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from ..datagen.schema import Schema

if TYPE_CHECKING:
    from .compile import CompiledTree

__all__ = ["DecisionTree", "NodeRow"]


class NodeRow(NamedTuple):
    """One node of a tree, read off its table row (see
    :meth:`DecisionTree.nodes`)."""

    id: int
    kind: int
    depth: int
    feature: int
    threshold: float
    label: int
    n_records: int
    class_counts: np.ndarray


class DecisionTree:
    """An induced classification tree: its schema and its breadth-first
    column table (:class:`~repro.tree.compile.CompiledTree`).

    The table is what every inducer emits, what a pickle carries and
    what prediction, export, pruning and the explanations read."""

    def __init__(self, schema: Schema, table: CompiledTree):
        if table is None:
            raise ValueError("tree must have a table")
        self.schema = schema
        self._compiled = table

    def __reduce__(self):
        return DecisionTree, (self.schema, self._compiled)

    def compiled(self) -> CompiledTree:
        """The flat-array table of this tree."""
        return self._compiled

    def nodes(self) -> Iterator[NodeRow]:
        """One read-only row per node, breadth-first."""
        t = self._compiled
        counts = t.class_counts.view()
        counts.flags.writeable = False
        for v, row in enumerate(zip(
                t.kind.tolist(), t.depths.tolist(), t.feature.tolist(),
                t.threshold.tolist(), t.leaf_label.tolist(),
                t.n_records.tolist(), counts)):
            yield NodeRow(v, *row)

    # -- measures -------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self._compiled.n_nodes

    @property
    def n_leaves(self) -> int:
        return self._compiled.n_leaves

    @property
    def depth(self) -> int:
        """Maximum leaf depth (root = 0)."""
        return self._compiled.max_depth

    def structurally_equal(self, other: "DecisionTree") -> bool:
        """Exact equality of schema and table — the cross-p correctness
        oracle (NaN thresholds of leaves and categorical splits compare
        equal)."""
        a, b = self._compiled, other._compiled
        return self.schema == other.schema and all(
            np.array_equal(x, y, equal_nan=x.dtype.kind == "f")
            for x, y in zip(a.arrays(), b.arrays()))

    # -- prediction -----------------------------------------------------------

    def predict_columns(self, columns: list[np.ndarray]) -> np.ndarray:
        """Predict class labels from raw per-attribute columns."""
        return self._compiled.predict_columns(columns)

    def predict(self, dataset) -> np.ndarray:
        """Predict class labels for a :class:`~repro.datagen.schema.Dataset`."""
        if len(dataset.schema) != len(self.schema):
            raise ValueError("dataset schema width differs from tree schema")
        return self.predict_columns(dataset.columns)

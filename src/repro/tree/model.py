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

All node data is plain and deterministic, so trees induced by different
processor counts (or the serial reference) can be compared for exact
structural equality — the repo's primary correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Union

import numpy as np

from ..datagen.schema import Schema

if TYPE_CHECKING:
    from .compile import CompiledTree

__all__ = ["Leaf", "ContinuousSplit", "CategoricalSplit", "DecisionTree",
           "TreeNode"]


@dataclass
class Leaf:
    """Terminal node: predicts ``label``."""

    label: int
    n_records: int
    class_counts: np.ndarray
    depth: int

    @property
    def is_leaf(self) -> bool:
        return True

    def structurally_equal(self, other: "TreeNode") -> bool:
        """Exact structural equality with another node."""
        return (
            isinstance(other, Leaf)
            and self.label == other.label
            and self.n_records == other.n_records
            and np.array_equal(self.class_counts, other.class_counts)
        )


@dataclass
class ContinuousSplit:
    """Binary split on a continuous attribute: left ⇔ value < threshold."""

    attr_index: int
    threshold: float
    n_records: int
    class_counts: np.ndarray
    depth: int
    children: list = field(default_factory=list)  # [left, right]

    @property
    def is_leaf(self) -> bool:
        return False

    @property
    def left(self) -> "TreeNode":
        return self.children[0]

    @property
    def right(self) -> "TreeNode":
        return self.children[1]

    def route(self, values: np.ndarray) -> np.ndarray:
        """Child index (0/1) for each value."""
        return (np.asarray(values) >= self.threshold).astype(np.int64)

    def structurally_equal(self, other: "TreeNode") -> bool:
        """Exact structural equality with another node (recursive)."""
        return (
            isinstance(other, ContinuousSplit)
            and self.attr_index == other.attr_index
            and self.threshold == other.threshold
            and self.n_records == other.n_records
            and np.array_equal(self.class_counts, other.class_counts)
            and all(a.structurally_equal(b)
                    for a, b in zip(self.children, other.children))
        )


@dataclass
class CategoricalSplit:
    """Multiway split on a categorical attribute.

    ``value_to_child[v]`` is the child index for attribute code v, or −1
    for codes absent from the training records at this node (routed to
    ``default_child``, the child holding the most records).
    """

    attr_index: int
    value_to_child: np.ndarray
    n_records: int
    class_counts: np.ndarray
    depth: int
    children: list = field(default_factory=list)
    default_child: int = 0

    @property
    def is_leaf(self) -> bool:
        return False

    def route(self, values: np.ndarray) -> np.ndarray:
        """Child index for each categorical code (unseen → default)."""
        codes = np.asarray(values).astype(np.int64)
        codes = np.clip(codes, 0, len(self.value_to_child) - 1)
        child = self.value_to_child[codes].astype(np.int64)
        return np.where(child < 0, self.default_child, child)

    def structurally_equal(self, other: "TreeNode") -> bool:
        """Exact structural equality with another node (recursive)."""
        return (
            isinstance(other, CategoricalSplit)
            and self.attr_index == other.attr_index
            and np.array_equal(self.value_to_child, other.value_to_child)
            and self.n_records == other.n_records
            and np.array_equal(self.class_counts, other.class_counts)
            and len(self.children) == len(other.children)
            and all(a.structurally_equal(b)
                    for a, b in zip(self.children, other.children))
        )


TreeNode = Union[Leaf, ContinuousSplit, CategoricalSplit]


class DecisionTree:
    """An induced classification tree bound to its schema.

    A tree lives in two forms that describe the same structure: the node
    objects under :attr:`root`, and the breadth-first column table
    (:class:`~repro.tree.compile.CompiledTree`).  Either can be given;
    the other is derived on first use and kept.  Both induction drivers
    hand over a ``table`` and so does unpickling — the table is the
    pickled form, so no node object ever crosses a pipe, a socket or a
    checkpoint and depth is no obstacle — and such a tree builds its
    nodes only when ``root`` is first read.  The oracles, export and
    pruning construct ``root`` and compile on demand.
    """

    def __init__(self, schema: Schema, root: TreeNode | None = None,
                 table: CompiledTree | None = None):
        if root is None and table is None:
            raise ValueError("tree must have a root")
        self.schema = schema
        self._root = root
        self._compiled = table

    @property
    def root(self) -> TreeNode:
        """The root node object (built from the table on first access)."""
        if self._root is None:
            self._root = self._compiled.build_root()
        return self._root

    def __reduce__(self):
        return DecisionTree, (self.schema, None, self.compiled())

    # -- traversal ----------------------------------------------------------

    def nodes(self) -> Iterator[TreeNode]:
        """All nodes, preorder."""
        stack: list[TreeNode] = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(reversed(node.children))

    def leaves(self) -> Iterator[Leaf]:
        """All leaves, preorder."""
        for node in self.nodes():
            if node.is_leaf:
                yield node

    # -- measures (read off the table when there is one) ----------------------

    @property
    def n_nodes(self) -> int:
        if self._compiled is not None:
            return self._compiled.n_nodes
        return sum(1 for _ in self.nodes())

    @property
    def n_leaves(self) -> int:
        if self._compiled is not None:
            return self._compiled.n_leaves
        return sum(1 for _ in self.leaves())

    @property
    def depth(self) -> int:
        """Maximum leaf depth (root = 0)."""
        if self._compiled is not None:
            return self._compiled.max_depth
        return max(n.depth for n in self.leaves())

    def structurally_equal(self, other: "DecisionTree") -> bool:
        """Exact structural equality — the cross-p correctness oracle."""
        return self.root.structurally_equal(other.root)

    # -- prediction (see predict.py / compile.py for the implementation) -----

    def compiled(self) -> CompiledTree:
        """The flat-array compiled form of this tree (cached).

        Compilation is pure and the table is kept with this instance —
        it travels with a pickle — so after in-place structural surgery
        on the nodes call :meth:`invalidate_compiled`.
        """
        if self._compiled is None:
            from .compile import compile_tree

            self._compiled = compile_tree(self)
        return self._compiled

    def invalidate_compiled(self) -> None:
        """Drop the table (call after mutating nodes): the nodes become
        the only truth, and the next use compiles them afresh."""
        self._root = self.root      # built first when only the table exists
        self._compiled = None

    def predict_columns(self, columns: list[np.ndarray]) -> np.ndarray:
        """Predict class labels from raw per-attribute columns."""
        from .predict import predict_columns

        return predict_columns(self, columns)

    def predict(self, dataset) -> np.ndarray:
        """Predict class labels for a :class:`~repro.datagen.schema.Dataset`."""
        if len(dataset.schema) != len(self.schema):
            raise ValueError("dataset schema width differs from tree schema")
        return self.predict_columns(dataset.columns)

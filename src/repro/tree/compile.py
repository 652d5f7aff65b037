"""Compiled flat-array decision trees: the serving-side hot path.

The pointer-chasing :class:`~repro.tree.model.DecisionTree` is the right
shape for induction and structural comparison, but routing records
through it costs a Python frame per node per routed subset
(``predict._route_recursive``) and dies with ``RecursionError`` on deep
trees.  :func:`compile_tree` lowers a fitted tree into a
:class:`CompiledTree` — a handful of flat numpy arrays — whose traversal
kernel advances *every* record one level per numpy step::

    node = child_table[child_base[node] + route(node, value)]

with no Python recursion and no per-node dispatch.

The table is also the form a tree is *grown, shipped and stored* in: the
level loop (:mod:`repro.core.frontier`) appends one column block per
level and assembles them through :func:`assemble_table` — the same
function :func:`compile_tree` finishes with, so both produce the same
arrays bit for bit — and a pickled :class:`DecisionTree` is its table
(no node object crosses a pipe, a socket or a checkpoint).  Node objects
are a view: :meth:`CompiledTree.build_root` makes them in one iterative
pass when something first asks for ``tree.root``.

Layout
------
Nodes are numbered in breadth-first order (root = 0).  Per node:

``kind``
    uint8: 0 leaf, 1 continuous split, 2 categorical split.
``feature``
    int32 attribute index of the split (−1 for leaves).
``threshold``
    float64 continuous split point (NaN elsewhere).
``child_base`` / ``fanout``
    CSR-style slice ``child_table[child_base[v]:child_base[v]+fanout[v]]``
    holding the node's outgoing edges: 2 slots for a continuous node
    (left, right), ``len(value_to_child)`` slots for a categorical node
    (one per attribute code).
``child_table``
    int32 *routing* table: slot → child node id.  Categorical codes that
    were absent at training time are baked to the node's default child,
    so the kernel never branches on "unseen value".
``slot_child``
    int32 raw child *ordinal* per slot (−1 for absent codes) — kept so
    :meth:`CompiledTree.to_tree` can reconstruct ``value_to_child``
    losslessly.
``leaf_label`` / ``leaf_proba``
    int32 predicted class per leaf (−1 for internal nodes) and the
    float64 per-class empirical frequencies
    (``class_counts / max(sum, 1)`` — computed exactly as the recursive
    predictor does, so probabilities agree bit-for-bit).
``n_records`` / ``class_counts``
    training-set statistics, preserved for the round trip.

``structure_digest`` is a blake2b digest over every array plus a schema
fingerprint; it names the *compiled artifact* (the serving registry
records it in model manifests so a served model can be pinned to the
exact routing tables it answered with).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from ..datagen.schema import Schema
from .model import (
    CategoricalSplit,
    ContinuousSplit,
    DecisionTree,
    Leaf,
    TreeNode,
)

__all__ = ["CompiledTree", "assemble_table", "compile_tree", "KIND_LEAF",
           "KIND_CONTINUOUS", "KIND_CATEGORICAL"]

KIND_LEAF = 0
KIND_CONTINUOUS = 1
KIND_CATEGORICAL = 2
#: a continuous split's slot → child-ordinal row
_LEFT_RIGHT = np.array([0, 1], dtype=np.int32)


@dataclass(frozen=True)
class CompiledTree:
    """A fitted tree lowered to flat arrays (see module docstring)."""

    schema: Schema
    kind: np.ndarray            # uint8  (n_nodes,)
    feature: np.ndarray         # int32  (n_nodes,)
    threshold: np.ndarray       # float64 (n_nodes,)
    child_base: np.ndarray      # int64  (n_nodes,)
    fanout: np.ndarray          # int32  (n_nodes,)
    child_table: np.ndarray     # int32  (n_slots,)
    slot_child: np.ndarray      # int32  (n_slots,)
    default_child: np.ndarray   # int32  (n_nodes,)
    leaf_label: np.ndarray      # int32  (n_nodes,)
    leaf_proba: np.ndarray      # float64 (n_nodes, n_classes)
    n_records: np.ndarray       # int64  (n_nodes,)
    class_counts: np.ndarray    # int64  (n_nodes, n_classes)

    # -- shape ---------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.kind)

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.kind == KIND_LEAF))

    @cached_property
    def max_depth(self) -> int:
        """Deepest leaf (root = 0), computed from the child table."""
        depth = self._node_depths()
        return int(depth[self.kind == KIND_LEAF].max())

    def _node_depths(self) -> np.ndarray:
        """Depth of every node (root = 0).  Breadth-first numbering makes
        a level one contiguous id range whose slots are contiguous too
        and whose children are the next range, so one sweep per *level*
        finds every boundary: the next level ends at the largest child id
        this level's slots name."""
        depth = np.zeros(self.n_nodes, dtype=np.int64)
        slot_end = np.cumsum(self.fanout, dtype=np.int64).tolist()
        first, hi, level = 0, 1, 0
        while slot_end[hi - 1] > first:
            last = slot_end[hi - 1]
            lo, hi = hi, int(self.child_table[first:last].max()) + 1
            first, level = last, level + 1
            depth[lo:hi] = level
        return depth

    @cached_property
    def structure_digest(self) -> str:
        """blake2b digest naming this compiled artifact (arrays + schema)."""
        h = hashlib.blake2b(digest_size=16)
        h.update(repr([(a.name, a.kind, a.n_values) for a in self.schema])
                 .encode())
        h.update(str(self.schema.n_classes).encode())
        for arr in (self.kind, self.feature, self.threshold, self.child_base,
                    self.fanout, self.child_table, self.slot_child,
                    self.default_child, self.leaf_label, self.leaf_proba,
                    self.n_records, self.class_counts):
            h.update(str(arr.dtype).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    # -- the kernel ----------------------------------------------------------

    @cached_property
    def _routing(self) -> tuple:
        """Precomputed node tables the traversal kernel gathers from.

        Leaves are lowered to *self-loops*: feature 0 (any valid
        column), threshold NaN (``value >= NaN`` is False → route 0)
        and a one-slot child table pointing back at the leaf itself.
        That removes every per-iteration "is this record done?" branch
        from the hot loop — finished records simply idle in place, and
        the active set is compacted only every few levels.
        """
        n = self.n_nodes
        leaf = self.kind == KIND_LEAF
        feature = np.where(leaf, 0, self.feature).astype(np.int64)
        is_cat = self.kind == KIND_CATEGORICAL
        fanout_m1 = np.maximum(self.fanout.astype(np.int64) - 1, 0)
        n_slots = len(self.child_table)
        child_base = self.child_base.copy()
        child_table = np.concatenate(
            [self.child_table.astype(np.int64),
             np.nonzero(leaf)[0].astype(np.int64)]
        ) if leaf.any() else self.child_table.astype(np.int64)
        child_base[leaf] = n_slots + np.arange(
            int(leaf.sum()), dtype=np.int64)
        return (feature, self.threshold, child_base, fanout_m1,
                child_table, is_cat, bool(is_cat.any()))

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        """Leaf node id per record of ``matrix`` (n_records, n_attributes).

        Fully vectorized and iterative: each pass advances every still-
        routing record one level (``node = child_table[child_base[node]
        + route]``) — no Python recursion, so arbitrarily deep trees
        route fine and cost is O(depth) numpy passes.  Records that
        already sit on a leaf self-loop (see :attr:`_routing`); the
        active set is compacted every few levels so early finishers on
        unbalanced trees stop costing work.
        """
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(
                f"expected a (n_records, n_attributes) matrix, "
                f"got shape {matrix.shape}"
            )
        width = matrix.shape[1]
        if width != len(self.schema):
            raise ValueError(
                f"expected {len(self.schema)} attribute columns, "
                f"got {width}"
            )
        n = matrix.shape[0]
        out = np.zeros(n, dtype=np.int64)
        if n == 0 or self.n_nodes == 1:
            return out
        feature, threshold, child_base, fanout_m1, child_table, is_cat, \
            has_cat = self._routing
        flat = matrix.reshape(-1)
        cur = np.zeros(n, dtype=np.int64)
        rows = np.arange(n, dtype=np.int64) * width
        dest = None                      # out index per active record
        level = 0
        while True:
            value = flat[rows + feature[cur]]
            route = threshold[cur] <= value     # False on NaN (leaves)
            if has_cat:
                with np.errstate(invalid="ignore"):
                    codes = value.astype(np.int64)
                np.clip(codes, 0, fanout_m1[cur], out=codes)
                route = np.where(is_cat[cur], codes, route)
            cur = child_table[child_base[cur] + route]
            level += 1
            # compact the active set every few levels (and at the end)
            if level % 8 == 0 or level >= self.max_depth:
                done = self.kind[cur] == KIND_LEAF
                if done.all():
                    if dest is None:
                        return cur
                    out[dest] = cur
                    return out
                if done.any():
                    if dest is None:
                        out[done] = cur[done]
                        dest = np.nonzero(~done)[0]
                    else:
                        out[dest[done]] = cur[done]
                        dest = dest[~done]
                    keep = ~done
                    cur = cur[keep]
                    rows = rows[keep]

    def predict_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Predicted class label per record row."""
        return self.leaf_label[self.apply(matrix)]

    def predict_proba_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Per-class empirical leaf frequencies per record row."""
        return self.leaf_proba[self.apply(matrix)]

    def _matrix_of(self, columns: list[np.ndarray]) -> np.ndarray:
        if len(columns) != len(self.schema):
            raise ValueError(
                f"expected {len(self.schema)} columns, got {len(columns)}"
            )
        if not columns:
            return np.empty((0, 0), dtype=np.float64)
        return np.column_stack(
            [np.asarray(c, dtype=np.float64) for c in columns]
        )

    def predict_columns(self, columns: list[np.ndarray]) -> np.ndarray:
        """Predicted class label per record (records = rows of columns)."""
        return self.predict_matrix(self._matrix_of(columns))

    def predict_proba_columns(self, columns: list[np.ndarray]) -> np.ndarray:
        """Per-class empirical leaf frequencies per record."""
        return self.predict_proba_matrix(self._matrix_of(columns))

    # -- round trip ----------------------------------------------------------

    def __reduce__(self):
        # the twelve arrays and the schema, positionally: no cached
        # routing tables or digests ride along
        return CompiledTree, tuple(
            getattr(self, f.name) for f in fields(self))

    def to_tree(self) -> DecisionTree:
        """The :class:`DecisionTree` over this table.  Its node objects
        are built (:meth:`build_root`) when ``tree.root`` is first read,
        so ``compile_tree(t).to_tree()`` is structurally equal to ``t``."""
        return DecisionTree(self.schema, table=self)

    def build_root(self) -> TreeNode:
        """Build the pointer-form nodes exactly; returns the root.

        One iterative pass, children before parents (their ids are
        larger), over plain lists — no recursion, so any depth builds.
        Depths come from the table structure (root = 0); all other node
        data round-trips from the stored arrays.  Every node's
        ``class_counts`` is its own row of one fresh copy.
        """
        kind, feature = self.kind.tolist(), self.feature.tolist()
        threshold, n_records = self.threshold.tolist(), self.n_records.tolist()
        label, default = self.leaf_label.tolist(), self.default_child.tolist()
        base, fanout = self.child_base.tolist(), self.fanout.tolist()
        table, slots = self.child_table.tolist(), self.slot_child.tolist()
        depth = self._node_depths().tolist()
        counts = list(self.class_counts.copy())
        nodes: list[TreeNode | None] = [None] * self.n_nodes
        for v in range(self.n_nodes - 1, -1, -1):
            if kind[v] == KIND_LEAF:
                nodes[v] = Leaf(label[v], n_records[v], counts[v], depth[v])
                continue
            lo = base[v]
            if kind[v] == KIND_CONTINUOUS:
                nodes[v] = ContinuousSplit(
                    feature[v], threshold[v], n_records[v], counts[v],
                    depth[v], [nodes[table[lo]], nodes[table[lo + 1]]],
                )
                continue
            hi = lo + fanout[v]
            ordinals = slots[lo:hi]
            children: list[TreeNode | None] = [None] * (max(ordinals) + 1)
            for child, ordinal in zip(table[lo:hi], ordinals):
                if ordinal >= 0:
                    children[ordinal] = nodes[child]
            nodes[v] = CategoricalSplit(
                feature[v], self.slot_child[lo:hi].copy(), n_records[v],
                counts[v], depth[v], children, default[v],
            )
        return nodes[0]


def assemble_table(schema: Schema, *, kind: np.ndarray, feature: np.ndarray,
                   threshold: np.ndarray, class_counts: np.ndarray,
                   n_records: np.ndarray, leaf_label: np.ndarray,
                   default_child: np.ndarray, n_children: np.ndarray,
                   fanout: np.ndarray, slot_child: np.ndarray
                   ) -> CompiledTree:
    """The :class:`CompiledTree` of per-node columns in breadth-first
    order — the one place the layout's derived arrays are computed, for
    :func:`compile_tree` (columns read off node objects) and the level
    loop (columns emitted level by level) alike.

    ``n_children`` is the node's child count, ``fanout`` its slot count
    and ``slot_child`` every node's raw slot → child-ordinal row, node
    after node (``[0, 1]`` for a continuous split, ``value_to_child`` for
    a categorical one).  Breadth-first order numbers the children of
    nodes 0, 1, 2 … consecutively from id 1, which gives every node's
    first child; ``child_table`` is that plus the slot's ordinal, absent
    codes baked to the default child.
    """
    n_children = np.asarray(n_children, dtype=np.int64)
    fanout = np.asarray(fanout, dtype=np.int32)
    default_child = np.asarray(default_child, dtype=np.int32)
    slot_child = np.asarray(slot_child, dtype=np.int32)
    class_counts = np.asarray(class_counts, dtype=np.int64)
    first_child = 1 + np.cumsum(n_children) - n_children
    slot_end = np.cumsum(fanout, dtype=np.int64)
    owner = np.repeat(np.arange(len(fanout)), fanout)
    ordinal = np.where(slot_child < 0, default_child[owner], slot_child)
    leaf = np.asarray(kind) == KIND_LEAF
    # same expression as the recursive predictor → bit-identical
    proba = class_counts / np.maximum(class_counts.sum(axis=1), 1)[:, None]
    return CompiledTree(
        schema=schema,
        kind=np.asarray(kind, dtype=np.uint8),
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        child_base=np.where(fanout > 0, slot_end - fanout, 0),
        fanout=fanout,
        child_table=(first_child[owner] + ordinal).astype(np.int32),
        slot_child=slot_child,
        default_child=default_child,
        leaf_label=np.asarray(leaf_label, dtype=np.int32),
        leaf_proba=np.where(leaf[:, None], proba, 0.0),
        n_records=np.asarray(n_records, dtype=np.int64),
        class_counts=class_counts,
    )


def compile_tree(tree: DecisionTree) -> CompiledTree:
    """Lower a fitted :class:`DecisionTree` into its flat-array form,
    from its node objects (``tree.compiled()`` is the cached way to ask;
    this always walks ``tree.root``)."""
    order: list[TreeNode] = [tree.root]
    for node in order:                        # breadth-first numbering
        if not node.is_leaf:
            order.extend(node.children)

    n = len(order)
    kind = [KIND_LEAF] * n
    feature = [-1] * n
    threshold = [np.nan] * n
    leaf_label = [-1] * n
    default_child = [0] * n
    n_children = [0] * n
    fanout = [0] * n
    slots: list[np.ndarray] = []
    for v, node in enumerate(order):
        if isinstance(node, Leaf):
            leaf_label[v] = node.label
            continue
        feature[v] = node.attr_index
        n_children[v] = len(node.children)
        if isinstance(node, ContinuousSplit):
            kind[v] = KIND_CONTINUOUS
            threshold[v] = node.threshold
            raw = _LEFT_RIGHT                       # slots = [left, right]
        else:
            kind[v] = KIND_CATEGORICAL
            default_child[v] = node.default_child
            raw = np.asarray(node.value_to_child, dtype=np.int32)
        fanout[v] = len(raw)
        slots.append(raw)

    return assemble_table(
        tree.schema, kind=kind, feature=feature, threshold=threshold,
        class_counts=np.concatenate(
            [node.class_counts for node in order]
        ).reshape(n, tree.schema.n_classes),
        n_records=[node.n_records for node in order],
        leaf_label=leaf_label, default_child=default_child,
        n_children=n_children, fanout=fanout,
        slot_child=np.concatenate(slots) if slots else (),
    )

"""One rank's streaming-fit state: retained records, tree rows, sketches.

The tree under construction is a table: node ``fid`` (the stream's
stable node number) is one row of the columns
:func:`~repro.tree.compile.assemble_table` takes, plus its first child's
fid and a padded slot row (``[0, 1]`` for a continuous split,
``value_to_child`` for a categorical one).  A split rewrites its leaf's
row and appends its children as consecutive fids, and
:meth:`StreamState.table` numbers the fids breadth-first.  Beside them,
per fid: depth, the open flag (closed = terminal unless a distribution
shift reopens it; a closed leaf keeps the counts it closed with) and
this rank's class counts.  Retained records carry their fid in
``node_of``.

Local sketches are held as padded blocks ``(fids, array)``, the array
shaped ``(len(fids), n_attrs, cap, 1+c)`` — one capacity group, the
layout a grow round sends to a scorer: :meth:`StreamState.gather` cuts
each scorer's share of a group out of them.  Only local sketches live
here; a node's merged sketches exist on its scorer, for one round.
"""

from __future__ import annotations

import numpy as np

from ..datagen.schema import Dataset, Schema
from ..tree.compile import KIND_CONTINUOUS, KIND_LEAF, CompiledTree, \
    assemble_table
from .sketch import SKETCH_MERGE, build_sketch_stack, sketch_identity_like

__all__ = ["StreamState", "transport_capacity"]

#: the per-fid columns every rank holds alike (an epoch cut's shared
#: payload), assemble_table's first; ``local_counts`` is per rank
ROWS = ("kind", "feature", "threshold", "class_counts", "n_records",
        "leaf_label", "default_child", "n_children", "first_child", "slots",
        "depth", "open_")


def transport_capacity(n: np.ndarray, full: int) -> np.ndarray:
    """Rows a node with *n* global records needs on the wire: the next
    power of two covering ``n`` (bucketing keeps the number of distinct
    stack shapes — hence capacity runs per round — logarithmic), clamped
    to ``[8, full]``.  A node holds at most ``n`` distinct values per
    attribute, so trimming the padded sketch to this bound is lossless.
    """
    pows = 8 << np.arange(max(full, 8).bit_length())
    return np.minimum(pows[np.searchsorted(pows, np.minimum(n, full))], full)


class StreamState:
    """Retained records + tree rows + local sketch blocks (see the module
    docstring).  Open leaf ``fid``'s sketches sit in row ``sk_row[fid]``
    of block ``sk_blk[fid]`` (−1 for every other fid)."""

    def __init__(self, schema: Schema, capacity: int):
        self.schema = schema
        self.n_attrs = len(schema)
        self.n_classes = c = schema.n_classes
        self.capacity = capacity
        # slots per feature: n_values if categorical, else 0 (a split's
        # fanout is 2 then); feature −1 → a leaf's 0
        self.widths = np.array([0 if spec.is_continuous else spec.n_values
                                for spec in schema] + [0])
        self.add_leaves(np.zeros((1, c), dtype=np.int64),
                        np.zeros(1, dtype=np.int64),
                        np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool),
                        np.zeros((1, c), dtype=np.int64))
        self.columns: list[np.ndarray] = [
            np.empty(0, dtype=(np.float64 if spec.is_continuous
                               else np.int32))
            for spec in schema
        ]
        self.labels: np.ndarray = np.empty(0, dtype=np.int64)
        self.node_of: np.ndarray = np.empty(0, dtype=np.int64)
        self.blocks: list[tuple[np.ndarray, np.ndarray]] = []
        self.adopt([(np.zeros(1, dtype=np.int64),
                     self.empty_block(1, capacity))])

    def add_leaves(self, class_counts, leaf_label, depth, open_,
                   local_counts) -> None:
        """Append leaves as the next fids (a split's children, in child
        order; the root on construction)."""
        n = len(depth)
        new = dict(
            kind=np.full(n, KIND_LEAF, dtype=np.uint8),
            feature=np.full(n, -1, dtype=np.int64),
            threshold=np.full(n, np.nan), class_counts=class_counts,
            n_records=class_counts.sum(axis=1), leaf_label=leaf_label,
            default_child=np.zeros(n, dtype=np.int64),
            n_children=np.zeros(n, dtype=np.int64),
            first_child=np.zeros(n, dtype=np.int64),
            slots=np.full((n, max(2, self.widths.max())), -1, dtype=np.int32),
            depth=depth, open_=open_, local_counts=local_counts)
        for name, col in new.items():
            old = getattr(self, name, None)
            setattr(self, name,
                    col if old is None else np.concatenate([old, col]))

    def table(self) -> tuple[CompiledTree, np.ndarray]:
        """The tree as a :class:`CompiledTree`, and the fid of each of its
        nodes.  A split's children are consecutive fids, so numbering
        breadth-first is one gather per level."""
        levels = [np.zeros(1, dtype=np.int64)]
        while (k := self.n_children[levels[-1]]).any():
            levels.append(np.arange(k.sum()) + np.repeat(
                self.first_child[levels[-1]] - np.cumsum(k) + k, k))
        fid = np.concatenate(levels)
        rows = {name: getattr(self, name)[fid] for name in ROWS[:8]}
        fanout = np.where(rows["kind"] == KIND_CONTINUOUS, 2,
                          self.widths[rows["feature"]])
        slots = self.slots[fid]
        return assemble_table(self.schema, **rows, fanout=fanout, slot_child=(
            slots[np.arange(slots.shape[1]) < fanout[:, None]])), fid

    def empty_block(self, n_nodes: int, cap: int) -> np.ndarray:
        return sketch_identity_like(np.empty(
            (n_nodes, self.n_attrs, cap, 1 + self.n_classes)))

    def sketch_block(self, nodes: np.ndarray, recs: list, n_nodes: int,
                     cap: int) -> np.ndarray:
        """The ``(n_nodes, n_attrs, cap, 1+c)`` local sketches of
        ``n_nodes`` nodes: ``recs[a]`` lists their retained records in
        attribute ``a``'s (node, value) order and ``nodes`` names each
        listed record's node (the same for every attribute)."""
        out = np.empty((n_nodes, self.n_attrs, cap, 1 + self.n_classes))
        for a, order in enumerate(recs):
            out[:, a] = build_sketch_stack(
                nodes, self.columns[a][order], self.labels[order],
                n_nodes, self.n_classes, self.capacity, rows=cap)
        return out

    def local_sketches(self, fids: np.ndarray, lo: int = 0) -> np.ndarray:
        """Full-capacity sketch block of leaves ``fids`` over the
        retained records from position ``lo`` on — one lexsort per
        attribute (ingest, resume, reopen; grow rounds regroup a
        presorted order instead)."""
        index = np.full(len(self.kind), -1, dtype=np.int64)
        index[fids] = np.arange(len(fids))
        nodes = index[self.node_of[lo:]]
        recs = lo + np.flatnonzero(nodes >= 0)
        nodes = nodes[recs - lo]
        orders = [np.lexsort((col[recs], nodes)) for col in self.columns]
        # node sizes are attribute-independent, so any order sorts nodes
        return self.sketch_block(np.sort(nodes), [recs[o] for o in orders],
                                 len(fids), self.capacity)

    def gather(self, fids: np.ndarray, cap: int) -> np.ndarray:
        """Local sketches of open leaves ``fids`` as one ``cap``-row block
        (padded or trimmed; a stored block that already is exactly this
        group is returned as is)."""
        blk = self.sk_blk[fids]
        held, arr = self.blocks[blk[0]]
        if arr.shape[2] == cap and np.array_equal(held, fids):
            return arr
        out = self.empty_block(len(fids), cap)
        for i in np.flatnonzero(np.bincount(blk)).tolist():
            sel = np.flatnonzero(blk == i)
            arr = self.blocks[i][1]
            k = min(cap, arr.shape[2])
            out[sel, :, :k] = arr[self.sk_row[fids[sel]], :, :k]
        return out

    def adopt(self, new_blocks: list) -> None:
        """Install new sketch blocks; rows released since the last call
        (``sk_blk`` reset to −1: closed, split or re-sketched leaves) are
        dropped here."""
        kept = []
        for i, (fids, arr) in enumerate(self.blocks):
            live = self.sk_blk[fids] == i
            if live.any():
                kept.append((fids, arr) if live.all()
                            else (fids[live], arr[live]))
        self.blocks = kept + [b for b in new_blocks if len(b[0])]
        self.sk_blk = np.full(len(self.kind), -1, dtype=np.int64)
        self.sk_row = np.zeros(len(self.kind), dtype=np.int64)
        for i, (fids, _) in enumerate(self.blocks):
            self.sk_blk[fids] = i
            self.sk_row[fids] = np.arange(len(fids))

    def rebuild_sketches(self) -> None:
        """Deterministically rebuild every open leaf's local sketches
        from the retained records (resume)."""
        fids = np.flatnonzero(self.open_)
        self.blocks = []
        self.adopt([(fids, self.local_sketches(fids))])

    def ingest(self, block: Dataset) -> None:
        """Route one epoch block to its leaves through the tree's table,
        extending the retained set, per-fid local counts and open-leaf
        sketches."""
        n_new = block.n_records
        if n_new == 0:
            return
        table, fid_of = self.table()
        fids = fid_of[table.apply(np.column_stack(block.columns))]
        labels = block.labels.astype(np.int64)
        added = np.bincount(
            fids * self.n_classes + labels,
            minlength=self.local_counts.size,
        ).reshape(self.local_counts.shape)
        self.local_counts += added
        base = len(self.labels)
        for a in range(self.n_attrs):
            self.columns[a] = np.concatenate(
                [self.columns[a], block.columns[a]])
        self.labels = np.concatenate([self.labels, labels])
        self.node_of = np.concatenate([self.node_of, fids])
        # closed leaves are re-sketched from the retained set on reopen
        touched = np.flatnonzero(added.any(axis=1) & self.open_)
        if len(touched):
            merged = SKETCH_MERGE.fn(
                self.gather(touched, self.capacity),
                self.local_sketches(touched, lo=base))
            self.sk_blk[touched] = -1
            self.adopt([(touched, merged)])

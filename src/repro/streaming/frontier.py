"""One rank's streaming-fit state: retained records, frontier, sketches.

The tree under construction is always complete and valid: every frontier
position is materialized as a Leaf.  Leaf ``fid`` is described by
``entries[fid] = (leaf, parent, slot)`` (``None`` once it has split, so
fids stay stable) plus one row of the per-fid arrays: depth, open flag
(open = may still grow; closed = terminal unless a distribution shift
reopens it), closing class distribution, last known global record count,
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
from ..tree.model import Leaf, TreeNode
from .sketch import SKETCH_MERGE, build_sketch_stack, sketch_identity_like

__all__ = ["StreamState", "transport_capacity"]


def transport_capacity(n: np.ndarray, full: int) -> np.ndarray:
    """Rows a node with *n* global records needs on the wire: the next
    power of two covering ``n`` (bucketing keeps the number of distinct
    stack shapes — hence fused reduces per round — logarithmic), clamped
    to ``[8, full]``.  A node holds at most ``n`` distinct values per
    attribute, so trimming the padded sketch to this bound is lossless.
    """
    pows = 8 << np.arange(max(full, 8).bit_length())
    return np.minimum(pows[np.searchsorted(pows, np.minimum(n, full))], full)


def _route_to_frontier(root: TreeNode, entries: list,
                       columns: list, n: int) -> np.ndarray:
    """fid of the frontier leaf each of the ``n`` records lands in."""
    leaf_fid = {id(e[0]): fid for fid, e in enumerate(entries)
                if e is not None}
    out = np.empty(n, dtype=np.int64)
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, np.arange(n))]
    while stack:
        node, pos = stack.pop()
        if node.is_leaf:
            out[pos] = leaf_fid[id(node)]
            continue
        child = node.route(columns[node.attr_index][pos])
        for ci in range(len(node.children)):
            sub = pos[child == ci]
            if len(sub):
                stack.append((node.children[ci], sub))
    return out


class StreamState:
    """Retained records + frontier registry + local sketch blocks (see
    the module docstring).  Open leaf ``fid``'s sketches sit in row
    ``sk_row[fid]`` of block ``sk_blk[fid]`` (−1 for every other fid)."""

    def __init__(self, schema: Schema, capacity: int):
        self.schema = schema
        self.n_attrs = len(schema)
        self.n_classes = c = schema.n_classes
        self.capacity = capacity
        root_leaf = Leaf(label=0, n_records=0,
                         class_counts=np.zeros(c, dtype=np.int64), depth=0)
        self.root: TreeNode = root_leaf
        self.entries: list[tuple | None] = [(root_leaf, None, 0)]
        self.depth = np.zeros(1, dtype=np.int64)
        self.open_ = np.ones(1, dtype=bool)
        self.closed_dist = np.full((1, c), np.nan)
        self.n_global = np.zeros(1, dtype=np.int64)
        self.local_counts = np.zeros((1, c), dtype=np.int64)
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

    def append_leaves(self, depth, open_, closed_dist, n_global,
                      local_counts) -> None:
        """Extend the per-fid arrays by a round's new children."""
        self.depth = np.concatenate([self.depth, depth])
        self.open_ = np.concatenate([self.open_, open_])
        self.closed_dist = np.concatenate([self.closed_dist, closed_dist])
        self.n_global = np.concatenate([self.n_global, n_global])
        self.local_counts = np.concatenate([self.local_counts, local_counts])

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
        index = np.full(len(self.entries), -1, dtype=np.int64)
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
        self.sk_blk = np.full(len(self.entries), -1, dtype=np.int64)
        self.sk_row = np.zeros(len(self.entries), dtype=np.int64)
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
        """Route one epoch block into the frontier, extending the
        retained set, per-entry local counts and open-leaf sketches."""
        n_new = block.n_records
        if n_new == 0:
            return
        fids = _route_to_frontier(self.root, self.entries,
                                  block.columns, n_new)
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

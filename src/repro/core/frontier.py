"""Figure 2's level loop and the tree-shaping rules, written once.

Every level-synchronous inducer here — ScalParC, parallel SPRINT (the
same driver with another splitting phase), SLIQ and vertical SLIQ/R —
grows its tree the same way::

    do while (there are open nodes at level l)
        class totals of the level's nodes          -> who is terminal
        best split per candidate node              -> who is accepted
        categorical child layouts, made global
        emit the level's tree nodes, number the children
        partition the records among the children
        l = l + 1
    end do

They differ only in where the statistics come from and how records learn
their next-level node, so that — and nothing else — sits behind
:class:`LevelSource`.  What shapes the tree lives here:
:func:`terminal_nodes` (the stopping rule), :func:`accepted_splits` (the
acceptance rule), :meth:`LevelFrontier.grow` (node emission, the
empty-child label rule, child numbering) and :func:`grow_levels` (the
loop).  Nothing here costs per node: a level is emitted as one block of
columns in the breadth-first layout of
:class:`~repro.tree.compile.CompiledTree`, the finished tree is those
blocks concatenated, and node objects are built from the table only
where somebody reads ``tree.root``.  The streaming driver keeps the tree
as per-fid rows of the same columns and calls the same two rules; the serial
reference and the node-at-a-time SPRINT engine stay independent on
purpose — they are the oracles.
"""

from __future__ import annotations

import numpy as np

from ..datagen.schema import Schema
from ..tree.compile import (
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    KIND_LEAF,
    CompiledTree,
    assemble_table,
)
from ..tree.model import DecisionTree
from .config import InductionConfig
from .criteria import impurity
from .splits import categorical_children_layout, pack_candidates
from .splitter import LevelDecisions

__all__ = [
    "LevelFrontier",
    "LevelSource",
    "accepted_splits",
    "grow_levels",
    "terminal_nodes",
]

#: node → (value_to_child as a list, n_children, default_child): the
#: picklable form categorical layouts travel in between ranks
Layouts = dict[int, tuple[list[int], int, int]]
#: attribute → node → (global count matrix, subset mask or None), held
#: by whichever rank scored that categorical attribute
CatState = dict[int, dict[int, tuple[np.ndarray, np.ndarray | None]]]


def terminal_nodes(totals: np.ndarray, depth: np.ndarray,
                   config: InductionConfig) -> np.ndarray:
    """Nodes that stop here: pure, too few records to split, or at the
    depth cap.  ``totals`` is the (m, c) class-count matrix of the level,
    ``depth`` the (m,) node depths."""
    n_node = totals.sum(axis=1)
    terminal = (totals.max(axis=1) == n_node) | (
        n_node < config.min_split_records
    )
    if config.max_depth is not None:
        terminal |= depth >= config.max_depth
    return terminal


def accepted_splits(best: np.ndarray, totals: np.ndarray,
                    candidates: np.ndarray,
                    config: InductionConfig) -> np.ndarray:
    """Candidate nodes whose best split is taken: a finite score whose
    impurity gain reaches ``min_improvement``.  ``best`` holds the (m, 3)
    winning ``[score, attr, threshold]`` rows."""
    gain = impurity(totals, config.criterion) - best[:, 0]
    return candidates & np.isfinite(best[:, 0]) \
        & (gain >= config.min_improvement)


class LevelFrontier:
    """The partial tree as a table, plus its open level.

    ``blocks[l]`` holds level ``l``'s nodes as the per-node columns
    :func:`~repro.tree.compile.assemble_table` takes (``class_counts`` is
    the level's ``totals``); levels are breadth-first and so are the
    nodes within one, so the finished tree is the blocks concatenated.
    The open level is ``n_open`` nodes at depth ``len(blocks)``, each
    with ``open_label`` — its parent's majority class, which an empty
    child is labelled with.  The whole object is plain arrays: it pickles
    as the checkpoint cut's replicated payload and grows on after a
    reload."""

    def __init__(self) -> None:
        self.blocks: list[dict[str, np.ndarray]] = []
        self.n_open = 1
        self.open_label = np.zeros(1, dtype=np.int64)

    @property
    def depth(self) -> int:
        """Depth of the open level's nodes."""
        return len(self.blocks)

    def grow(self, schema: Schema, totals: np.ndarray, best: np.ndarray,
             split_ok: np.ndarray, layouts: Layouts) -> LevelDecisions:
        """Emit this level's block — a split where ``split_ok``, a leaf
        elsewhere — and open the splits' children as the next level,
        numbered in node order.  Returns the decisions the splitting phase
        partitions the records by.  ``totals`` is kept, not copied."""
        winner_attr = np.where(split_ok, best[:, 1], -1).astype(np.int64)
        continuous = np.array([spec.is_continuous for spec in schema])
        cont = split_ok & continuous[winner_attr]
        n_children = np.where(cont, 2, 0)
        fanout = n_children.copy()
        default_child = np.zeros(len(totals), dtype=np.int32)
        cat_layouts: dict[int, np.ndarray] = {}
        for k in np.flatnonzero(split_ok & ~cont).tolist():
            v2c_list, n_children[k], default_child[k] = layouts[k]
            cat_layouts[k] = np.asarray(v2c_list, dtype=np.int64)
            fanout[k] = len(v2c_list)
        slot_base = np.cumsum(fanout) - fanout
        slot_child = np.zeros(int(fanout.sum()), dtype=np.int32)
        slot_child[slot_base[cont] + 1] = 1             # [left, right]
        for k, v2c in cat_layouts.items():
            slot_child[slot_base[k]:slot_base[k] + len(v2c)] = v2c

        # an empty child (a multiway categorical value with no records at
        # this node) has all-zero counts: argmax would always say class 0
        # — it inherits the parent's majority
        n_records = totals.sum(axis=1)
        majority = np.argmax(totals, axis=1)
        self.blocks.append({
            "kind": np.where(cont, KIND_CONTINUOUS,
                             np.where(split_ok, KIND_CATEGORICAL, KIND_LEAF)
                             ).astype(np.uint8),
            "feature": winner_attr.astype(np.int32),
            "threshold": np.where(cont, best[:, 2], np.nan),
            "class_counts": totals,
            "n_records": n_records,
            "leaf_label": np.where(
                split_ok, -1,
                np.where(n_records == 0, self.open_label, majority)),
            "default_child": default_child,
            "n_children": n_children,
            "fanout": fanout,
            "slot_child": slot_child,
        })
        self.n_open = int(n_children.sum())
        self.open_label = np.repeat(majority, n_children)
        return LevelDecisions(
            splitting=split_ok, winner_attr=winner_attr,
            threshold=self.blocks[-1]["threshold"], cat_layouts=cat_layouts,
            child_base=np.where(split_ok,
                                np.cumsum(n_children) - n_children, 0),
            n_next=self.n_open,
        )

    def table(self, schema: Schema) -> CompiledTree:
        """The tree grown so far as a :class:`CompiledTree` — bit for bit
        what ``compile_tree`` makes of the same tree's node objects.  Only
        meaningful once no level is open."""
        return assemble_table(schema, **{
            name: np.concatenate([block[name] for block in self.blocks])
            for name in self.blocks[0]
        })


class LevelSource:
    """What one inducer supplies to :func:`grow_levels`: the level's
    statistics and the record partition.  Every method is collective
    where the inducer is parallel — all ranks call it with identical
    arguments and (bar ``best_splits``' categorical state) get identical
    results."""

    def class_totals(self, level: int, n_nodes: int) -> np.ndarray:
        """Global (n_nodes, c) class counts of the level's open nodes."""
        raise NotImplementedError

    def best_splits(self, totals: np.ndarray, candidates: np.ndarray
                    ) -> tuple[np.ndarray, CatState]:
        """Global best ``[score, attr, threshold]`` row per node (``inf``
        rows where none exists), plus the scored categorical state this
        caller holds.  Called only when some node is a candidate."""
        raise NotImplementedError

    def share_layouts(self, layouts: Layouts) -> Layouts:
        """Make the categorical child layouts this caller derived global
        (serial sources already hold them all).  Called only when some
        node splits."""
        return layouts

    def partition(self, decisions: LevelDecisions) -> None:
        """Move every record of a splitting node to its next-level node."""
        raise NotImplementedError

    def end_level(self, level: int, frontier: LevelFrontier,
                  n_active: int) -> None:
        """Level-boundary hook (level marks, checkpoint cuts);
        ``n_active`` counts the records inside splitting nodes."""


def grow_levels(frontier: LevelFrontier, schema: Schema,
                config: InductionConfig, source: LevelSource,
                level: int = 0) -> DecisionTree:
    """Grow ``frontier`` to completion, one level per iteration, reading
    statistics from and partitioning records through ``source``; returns
    the finished tree."""
    while frontier.n_open:
        m = frontier.n_open
        totals = source.class_totals(level, m)
        candidates = ~terminal_nodes(totals, np.full(m, frontier.depth),
                                     config)
        best, cat_state = pack_candidates(m), {}
        if candidates.any():
            best, cat_state = source.best_splits(totals, candidates)
        split_ok = accepted_splits(best, totals, candidates, config)

        # child layouts of categorical winners, from whoever scored them
        layouts: Layouts = {}
        for attr, scored in cat_state.items():
            won = split_ok & (best[:, 1] == attr)
            for k in np.flatnonzero(won).tolist():
                if k in scored:
                    v2c, n_children, default = \
                        categorical_children_layout(*scored[k])
                    layouts[k] = (v2c.tolist(), n_children, default)
        if split_ok.any():
            layouts = source.share_layouts(layouts)

        decisions = frontier.grow(schema, totals, best, split_ok, layouts)
        if decisions.n_next:
            source.partition(decisions)
        source.end_level(level, frontier, int(totals[split_ok].sum()))
        level += 1
    return frontier.table(schema).to_tree()

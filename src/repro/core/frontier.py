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
loop).  The streaming driver keeps its own array-form frontier but calls
the same two rule functions; the serial reference and the node-at-a-time
SPRINT engine stay independent on purpose — they are the oracles.
"""

from __future__ import annotations

import numpy as np

from ..datagen.schema import Schema
from ..tree.model import (
    CategoricalSplit,
    ContinuousSplit,
    DecisionTree,
    Leaf,
    TreeNode,
)
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
    """The partial tree plus its open nodes: ``pending[k] = (parent node,
    child slot, depth)`` of the level's node ``k``.  ``(root, pending)``
    is one object graph — pickled together (the checkpoint cut's ``tree``
    payload), the parents in ``pending`` stay nodes of ``root``."""

    def __init__(self, root: TreeNode | None = None,
                 pending: list[tuple[TreeNode | None, int, int]] | None = None):
        self.root = root
        self.pending = [(None, 0, 0)] if pending is None else list(pending)

    def depths(self) -> np.ndarray:
        """Depth of every open node."""
        return np.array([d for (_, _, d) in self.pending], dtype=np.int64)

    def grow(self, schema: Schema, totals: np.ndarray, best: np.ndarray,
             split_ok: np.ndarray, layouts: Layouts) -> LevelDecisions:
        """Emit this level's tree nodes — a split where ``split_ok``, a
        leaf elsewhere — and open the splits' children as the next level,
        numbered in node order.  Returns the decisions the splitting phase
        partitions the records by."""
        m = len(self.pending)
        n_node = totals.sum(axis=1).tolist()
        winner_attr = np.full(m, -1, dtype=np.int64)
        threshold = np.full(m, np.nan, dtype=np.float64)
        child_base = np.zeros(m, dtype=np.int64)
        cat_layouts: dict[int, np.ndarray] = {}
        n_next = 0
        opened: list[tuple[TreeNode | None, int, int]] = []
        for k, (parent, slot, depth) in enumerate(self.pending):
            counts = totals[k].copy()
            if not split_ok[k]:
                # an empty child (a multiway categorical value with no
                # records at this node) has all-zero counts: argmax would
                # always say class 0 — inherit the parent's majority
                vote = parent.class_counts \
                    if n_node[k] == 0 and parent is not None else counts
                node: TreeNode = Leaf(
                    label=int(np.argmax(vote)), n_records=n_node[k],
                    class_counts=counts, depth=depth,
                )
            else:
                attr = int(best[k, 1])
                winner_attr[k] = attr
                child_base[k] = n_next
                if schema[attr].is_continuous:
                    threshold[k] = best[k, 2]
                    n_children = 2
                    node = ContinuousSplit(
                        attr_index=attr, threshold=float(best[k, 2]),
                        n_records=n_node[k], class_counts=counts,
                        depth=depth, children=[None, None],
                    )
                else:
                    v2c_list, n_children, default = layouts[k]
                    v2c = np.asarray(v2c_list, dtype=np.int32)
                    cat_layouts[k] = v2c.astype(np.int64)
                    node = CategoricalSplit(
                        attr_index=attr, value_to_child=v2c,
                        n_records=n_node[k], class_counts=counts,
                        depth=depth, children=[None] * n_children,
                        default_child=default,
                    )
                for c in range(n_children):
                    opened.append((node, c, depth + 1))
                n_next += n_children
            if parent is None:
                self.root = node
            else:
                parent.children[slot] = node
        self.pending = opened
        return LevelDecisions(
            splitting=split_ok, winner_attr=winner_attr, threshold=threshold,
            cat_layouts=cat_layouts, child_base=child_base, n_next=n_next,
        )


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
    while frontier.pending:
        m = len(frontier.pending)
        totals = source.class_totals(level, m)
        candidates = ~terminal_nodes(totals, frontier.depths(), config)
        best, cat_state = pack_candidates(m), {}
        if candidates.any():
            best, cat_state = source.best_splits(totals, candidates)
        split_ok = accepted_splits(best, totals, candidates, config)

        # child layouts of categorical winners, from whoever scored them
        layouts: Layouts = {}
        for k in np.nonzero(split_ok)[0].tolist():
            state = cat_state.get(int(best[k, 1]), {}).get(k)
            if state is not None:
                v2c, n_children, default = categorical_children_layout(*state)
                layouts[k] = (v2c.tolist(), n_children, default)
        if split_ok.any():
            layouts = source.share_layouts(layouts)

        decisions = frontier.grow(schema, totals, best, split_ok, layouts)
        if decisions.n_next:
            source.partition(decisions)
        source.end_level(level, frontier, int(totals[split_ok].sum()))
        level += 1
    return DecisionTree(schema=schema, root=frontier.root)

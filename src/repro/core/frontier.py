"""Figure 2's level loop, the tree-shaping rules and the frontier, written
once.

Every inducer here — ScalParC, parallel SPRINT (the same driver with
another splitting phase) and the streaming driver — grows its tree the
same way::

    visit every open node
    do while (the last pass split a node)
        class totals of the visited nodes          -> who is terminal
        (the source may finish the candidates' subtrees itself: stop)
        best split per candidate node              -> who is accepted
        categorical child layouts, made global
        write the nodes' rows, append the children
        partition the records among the children
        visit the nodes this pass opened
    end do

For a batch inducer a pass is one tree level.  A streaming one runs the
same loop over the leaves its latest records reached, and may hold a node
open for records still to come or reopen a closed leaf — neither needs
anything of the loop but ``final`` (see :func:`grow_levels`).  ScalParC
at p > 1 leaves the loop early: once its nodes are small it hands each
one to a single rank, which grows the subtree with this same loop on a
world of one (``LevelSource.hand_off``).  The
inducers differ only in where the statistics come from and how records
learn their node, so that — and nothing else — sits behind
:class:`LevelSource`.  What shapes the tree lives here:
:func:`terminal_nodes` (the stopping rule), :func:`accepted_splits` (the
acceptance rule), :meth:`LevelFrontier.grow` (node rows, the empty-child
label rule, child numbering) and :func:`grow_levels` (the loop).

Nothing here costs per node: the partial tree is per-node rows of the
columns :func:`~repro.tree.compile.assemble_table` takes, the finished
tree is those rows numbered breadth-first, and node objects are built
from the table only where somebody reads ``tree.root``.  The serial
reference stays independent on purpose — it is the oracle.
"""

from __future__ import annotations

from math import prod

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

#: a frontier's per-node rows, assemble_table's columns first — what a
#: checkpoint cut carries of it
ROWS = ("kind", "feature", "threshold", "class_counts", "n_records",
        "leaf_label", "default_child", "n_children", "first_child", "slots",
        "depth", "open_")


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
    """The partial tree as a table of per-node rows.

    Node ``fid`` — its number in creation order — is row ``fid`` of
    :data:`ROWS`: the columns :func:`~repro.tree.compile.assemble_table`
    takes, its first child's fid, a padded slot row (``[0, 1]`` for a
    continuous split, ``value_to_child`` for a categorical one), its depth
    and whether it is open (a leaf that may still split).  A split
    rewrites its node's row and appends the children as consecutive fids,
    each labelled with its parent's majority class until records of its
    own say otherwise — the label an empty child keeps.  :meth:`table`
    numbers the fids breadth-first; a batch inducer creates its nodes
    level by level, so there the fids already are that order.  Plain
    arrays throughout: :meth:`rows` is a checkpoint cut's payload and
    :meth:`from_rows` grows on from it."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        # slot-row width per feature: n_values if categorical, else 0 (a
        # split's fanout is 2 then); feature −1 → a leaf's 0
        self.widths = np.array([0 if spec.is_continuous else spec.n_values
                                for spec in schema] + [0])
        self._open(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))

    @classmethod
    def from_rows(cls, schema: Schema, rows: dict) -> "LevelFrontier":
        frontier = cls(schema)
        for name in ROWS:
            setattr(frontier, name, rows[name])
        return frontier

    def rows(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in ROWS}

    def pack_rows(self, fids: np.ndarray) -> np.ndarray:
        """Rows ``fids`` as one byte matrix, a node per row: the columns of
        :data:`ROWS` side by side, each in its own dtype — the form rows
        travel in between ranks."""
        cols = [getattr(self, name)[fids] for name in ROWS]
        return np.concatenate([
            np.ascontiguousarray(col).reshape(len(fids), prod(col.shape[1:]))
            .view(np.uint8) for col in cols], axis=1)

    def put_rows(self, fids: np.ndarray, packed: np.ndarray) -> None:
        """Write :meth:`pack_rows` output at ``fids``, growing the table
        to cover every fid named."""
        n = max(len(self.kind), int(fids.max()) + 1 if len(fids) else 0)
        start = 0
        for name in ROWS:
            col = getattr(self, name)
            if len(col) < n:
                col = np.concatenate([col, np.zeros(
                    (n - len(col),) + col.shape[1:], dtype=col.dtype)])
                setattr(self, name, col)
            width = col.dtype.itemsize * prod(col.shape[1:])
            block = np.ascontiguousarray(packed[:, start:start + width])
            start += width
            col[fids] = block.view(col.dtype).reshape(
                (len(fids),) + col.shape[1:])

    def _open(self, label: np.ndarray, depth: np.ndarray) -> None:
        """Append open leaves as the next fids (a split's children, in
        child order; the root on construction)."""
        n = len(depth)
        new = dict(
            kind=np.full(n, KIND_LEAF, dtype=np.uint8),
            feature=np.full(n, -1, dtype=np.int64),
            threshold=np.full(n, np.nan),
            class_counts=np.zeros((n, self.schema.n_classes), dtype=np.int64),
            n_records=np.zeros(n, dtype=np.int64), leaf_label=label,
            default_child=np.zeros(n, dtype=np.int64),
            n_children=np.zeros(n, dtype=np.int64),
            first_child=np.zeros(n, dtype=np.int64),
            slots=np.full((n, max(2, self.widths.max())), -1, dtype=np.int32),
            depth=depth, open_=np.ones(n, dtype=bool))
        for name, col in new.items():
            old = getattr(self, name, None)
            setattr(self, name,
                    col if old is None else np.concatenate([old, col]))

    def settle(self, fids: np.ndarray, totals: np.ndarray) -> None:
        """Write fresh global class totals into nodes ``fids``; each takes
        its majority class, an empty one keeps the label it has."""
        n = totals.sum(axis=1)
        self.class_counts[fids] = totals
        self.n_records[fids] = n
        self.leaf_label[fids] = np.where(n > 0, np.argmax(totals, axis=1),
                                         self.leaf_label[fids])

    def grow(self, fids: np.ndarray, totals: np.ndarray, best: np.ndarray,
             split_ok: np.ndarray, layouts: Layouts,
             closed: np.ndarray) -> LevelDecisions:
        """Write the rows of the visited nodes ``fids`` — a split where
        ``split_ok``, a leaf elsewhere, closed where ``closed`` — and open
        the splits' children as new fids, numbered in node order.  Returns
        the decisions the splitting phase partitions the records by, node
        ``k`` being ``fids[k]``.  ``totals`` is kept, not copied."""
        self.settle(fids, totals)
        winner_attr = np.where(split_ok, best[:, 1], -1).astype(np.int64)
        cont = split_ok & (self.widths[winner_attr] == 0)
        n_children = np.where(cont, 2, 0)
        cat_layouts: dict[int, np.ndarray] = {}
        for k in np.flatnonzero(split_ok & ~cont).tolist():
            v2c, n_children[k], self.default_child[fids[k]] = layouts[k]
            cat_layouts[k] = np.asarray(v2c, dtype=np.int64)
            self.slots[fids[k], :len(v2c)] = v2c
        self.slots[fids[cont], :2] = (0, 1)
        child_base = np.cumsum(n_children) - n_children
        threshold = np.where(cont, best[:, 2], np.nan)

        split = fids[split_ok]
        self.kind[split] = np.where(cont[split_ok], KIND_CONTINUOUS,
                                    KIND_CATEGORICAL)
        self.feature[split] = winner_attr[split_ok]
        self.threshold[split] = threshold[split_ok]
        self.leaf_label[split] = -1
        self.n_children[split] = n_children[split_ok]
        self.first_child[split] = len(self.kind) + child_base[split_ok]
        self.open_[fids[split_ok | closed]] = False
        self._open(np.repeat(np.argmax(totals, axis=1), n_children),
                   np.repeat(self.depth[fids] + 1, n_children))
        return LevelDecisions(
            splitting=split_ok, winner_attr=winner_attr, threshold=threshold,
            cat_layouts=cat_layouts,
            child_base=np.where(split_ok, child_base, 0),
            n_next=int(n_children.sum()),
        )

    def table(self) -> tuple[CompiledTree, np.ndarray]:
        """The tree as a :class:`CompiledTree` — bit for bit what
        ``compile_tree`` makes of the same tree's node objects — and the
        fid of each of its nodes.  A split's children are consecutive fids,
        so numbering breadth-first is one gather per level."""
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


class LevelSource:
    """What one inducer supplies to :func:`grow_levels`: the visited
    nodes' statistics and the record partition.  Every method is
    collective where the inducer is parallel — all ranks call it with
    identical arguments and (bar ``best_splits``' categorical state) get
    identical results.  Node ``k`` of a pass is the pass's ``fids[k]``."""

    def class_totals(self, level: int, fids: np.ndarray) -> np.ndarray:
        """Global (len(fids), c) class counts of the visited nodes."""
        raise NotImplementedError

    def ready(self, totals: np.ndarray) -> np.ndarray:
        """Which visited nodes hold enough records to be examined while
        more records may still arrive (every node is, once none will)."""
        return np.ones(len(totals), dtype=bool)

    def hand_off(self, level: int, frontier: LevelFrontier,
                 fids: np.ndarray, totals: np.ndarray,
                 candidates: np.ndarray) -> bool:
        """Finish the pass's candidate nodes' subtrees outside this loop,
        writing them and the pass's other nodes into ``frontier``; True
        when that is done and the loop ends.  Called before
        ``best_splits`` whenever some node is a candidate."""
        return False

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
        """Move every record of a splitting node to its child."""
        raise NotImplementedError

    def end_level(self, level: int, frontier: LevelFrontier,
                  n_active: int) -> None:
        """Pass-boundary hook (level marks, checkpoint cuts);
        ``n_active`` counts the records inside splitting nodes."""


def grow_levels(frontier: LevelFrontier, config: InductionConfig,
                source: LevelSource, level: int = 0,
                final: bool = True) -> DecisionTree:
    """Grow ``frontier`` until a pass splits nothing, reading statistics
    from and partitioning records through ``source``; returns the tree
    grown so far.  The first pass visits every open node, each later one
    the nodes the pass before opened — its children, and any leaf the
    source reopened.

    ``final``: no record is still to come, so every visited node is
    examined and one that does not split closes for good (batch fits, a
    stream's finalize).  Otherwise only the nodes ``source.ready`` names
    are examined, and of those that do not split only the terminal ones
    close; the rest stay open for the records to come.
    """
    fids = np.flatnonzero(frontier.open_)
    while True:
        was_open = frontier.open_.copy()
        totals = source.class_totals(level, fids)
        ready = source.ready(totals) | final
        terminal = ready & terminal_nodes(totals, frontier.depth[fids],
                                          config)
        candidates = ready & ~terminal
        best, cat_state = pack_candidates(len(fids)), {}
        if candidates.any():
            if source.hand_off(level, frontier, fids, totals, candidates):
                return frontier.table()[0].to_tree()
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

        decisions = frontier.grow(fids, totals, best, split_ok, layouts,
                                  ~split_ok if final else terminal)
        if decisions.n_next:
            source.partition(decisions)
        source.end_level(level, frontier, int(totals[split_ok].sum()))
        level += 1
        if not decisions.n_next:
            return frontier.table()[0].to_tree()
        opened = frontier.open_.copy()
        opened[:len(was_open)] &= ~was_open
        fids = np.flatnonzero(opened)

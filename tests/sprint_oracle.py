"""A genuine serial SPRINT implementation (§2's "SPRINT's approach").

Unlike :mod:`repro.baselines.serial_reference` (which re-sorts at every
node, CART-style) and :mod:`repro.baselines.serial_sprint` (which only
*models* SPRINT's IO), this module implements SPRINT's actual mechanics on
one machine:

* each continuous attribute list is sorted **once**; every node owns
  physically split per-attribute lists that inherit the sorted order;
* the splitting phase builds an explicit record-id → child hash table
  from the winning attribute's list and probes it to split the other
  lists consistently;
* with a **memory budget** of B hash entries, nodes larger than B are
  split in ⌈n/B⌉ passes: each pass builds the hash table for one slice of
  the winner list and re-scans the other attribute lists for records in
  that slice — the "multiple passes over the entire data requiring
  additional expensive disk I/O" of §2, executed for real and counted.

Because it shares the impurity kernels and canonical candidate order with
everything else in the repo, its trees are bit-identical to the serial
reference and to ScalParC at any processor count — the test suite checks
this, which in turn validates that presort-once splitting preserves exact
split semantics.  It writes its tree in the nested model-file form
(:func:`repro.tree.to_dict`'s) and reads it with ``from_dict``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.serial_reference import best_split_for_counts
from repro.core.config import InductionConfig
from repro.core.criteria import impurity, split_score_from_left
from repro.core.splits import (
    NO_CANDIDATE,
    candidate_beats,
    categorical_children_layout,
    encode_mask,
)
from repro.datagen.schema import Dataset
from repro.tree import DecisionTree, from_dict

__all__ = ["SprintClassifier", "SprintRunStats"]


@dataclass
class _NodeLists:
    """One tree node's physically split attribute lists.

    ``per_attr[a] = (values, rids, labels)``; continuous lists stay in
    (value, rid) order — the invariant SPRINT's presort buys.
    """

    per_attr: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    depth: int
    parent: dict | None
    slot: int

    @property
    def n_records(self) -> int:
        return len(self.per_attr[0][1])


@dataclass
class SprintRunStats:
    """Measured (not modeled) splitting-phase behaviour of one run."""

    memory_budget_entries: int | None
    #: total hash-table build passes across all internal nodes
    passes: int = 0
    #: largest hash table actually materialized (entries)
    peak_hash_entries: int = 0
    #: attribute-list entries visited while splitting (re-reads included)
    entries_scanned: int = 0
    #: entries re-read beyond the single-pass minimum
    extra_io_entries: int = 0
    #: per-level (level, passes, extra_io) triples
    per_level: list = field(default_factory=list)


class SprintClassifier:
    """Serial SPRINT: presort once, hash-table splitting, optional budget.

    Parameters
    ----------
    config:
        Shared induction configuration.
    memory_budget_entries:
        Hash-table entries that fit "in memory"; ``None`` = unbounded.
    """

    def __init__(self, config: InductionConfig | None = None,
                 memory_budget_entries: int | None = None):
        if memory_budget_entries is not None and memory_budget_entries <= 0:
            raise ValueError("memory_budget_entries must be positive")
        self.config = config or InductionConfig()
        self.memory_budget_entries = memory_budget_entries

    # ------------------------------------------------------------------

    def fit(self, dataset: Dataset) -> tuple[DecisionTree, SprintRunStats]:
        """Induce the tree; returns it plus measured splitting-phase IO."""
        if dataset.n_records == 0:
            raise ValueError("cannot induce a tree from an empty dataset")
        config = self.config
        schema = dataset.schema
        n_classes = schema.n_classes
        labels_all = dataset.labels.astype(np.int64)
        rids_all = np.arange(dataset.n_records, dtype=np.int64)
        stats = SprintRunStats(self.memory_budget_entries)

        # Presort: one sort per continuous attribute, ever
        root_lists: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for a, spec in enumerate(schema):
            col = dataset.columns[a]
            if spec.is_continuous:
                order = np.lexsort((rids_all, col))
                root_lists.append(
                    (col[order].astype(np.float64), rids_all[order],
                     labels_all[order])
                )
            else:
                root_lists.append(
                    (col.astype(np.int64), rids_all.copy(),
                     labels_all.copy())
                )

        root_holder: list[dict | None] = [None]

        def attach(node: dict, parent: dict | None, slot: int) -> None:
            if parent is None:
                root_holder[0] = node
            else:
                parent["children"][slot] = node

        queue: deque[_NodeLists] = deque(
            [_NodeLists(root_lists, depth=0, parent=None, slot=0)]
        )
        level_acc: dict[int, list[tuple[int, int]]] = {}

        while queue:
            work = queue.popleft()
            counts = np.bincount(work.per_attr[0][2], minlength=n_classes)
            n = work.n_records
            terminal = (
                int(counts.max()) == n
                or n < config.min_split_records
                or (config.max_depth is not None
                    and work.depth >= config.max_depth)
            )
            if not terminal:
                winner = self._find_split(work, counts, schema, config)
            else:
                winner = None
            stats_of = {"n_records": n, "class_counts": counts.tolist(),
                        "depth": work.depth}
            if winner is None:
                attach({"type": "leaf", "label": int(np.argmax(counts)),
                        **stats_of}, work.parent, work.slot)
                continue

            node, child_of_winner, n_children = winner
            node.update(stats_of)
            attach(node, work.parent, work.slot)
            children = self._perform_split(
                work, node["attr_index"], child_of_winner, n_children,
                stats, level_acc,
            )
            for c, child_lists in enumerate(children):
                queue.append(
                    _NodeLists(child_lists, depth=work.depth + 1,
                               parent=node, slot=c)
                )

        stats.per_level = [
            (level, sum(p for p, _ in items), sum(x for _, x in items))
            for level, items in sorted(level_acc.items())
        ]
        return from_dict({"schema": {
            "n_classes": n_classes,
            "attributes": [{"name": a.name, "kind": a.kind,
                            "n_values": a.n_values} for a in schema],
        }, "root": root_holder[0]}), stats

    # ------------------------------------------------------------------

    def _find_split(self, work: _NodeLists, counts: np.ndarray, schema,
                    config: InductionConfig):
        """FindSplit over the node's presorted lists (no re-sorting).

        Returns ``(node dict without its statistics, winner-list child
        assignment, n_children)`` or None when the node must become a
        leaf.
        """
        n = work.n_records
        n_classes = len(counts)
        best = np.array(NO_CANDIDATE)
        best_attr = -1
        best_matrix: np.ndarray | None = None
        best_mask: np.ndarray | None = None

        for a, spec in enumerate(schema):
            values, _rids, labels = work.per_attr[a]
            if spec.is_continuous:
                if n < 2:
                    continue
                left = np.empty((n, n_classes), dtype=np.int64)
                for j in range(n_classes):
                    cum = np.cumsum(labels == j)
                    left[1:, j] = cum[:-1]
                left[0, :] = 0
                valid = np.empty(n, dtype=bool)
                valid[0] = False
                valid[1:] = values[1:] > values[:-1]
                if not valid.any():
                    continue
                scores = split_score_from_left(left[valid], counts,
                                               config.criterion)
                pos = int(np.argmin(scores))
                row = np.array([
                    float(scores[pos]), float(a), float(values[valid][pos])
                ])
                if candidate_beats(row, best):
                    best = row
                    best_attr = a
                    best_matrix = None
                    best_mask = None
            else:
                matrix = np.bincount(
                    values * n_classes + labels,
                    minlength=spec.n_values * n_classes,
                ).reshape(spec.n_values, n_classes)
                score, mask = best_split_for_counts(matrix, config)
                if not np.isfinite(score):
                    continue
                code = encode_mask(mask) if mask is not None else 0.0
                row = np.array([score, float(a), code])
                if candidate_beats(row, best):
                    best = row
                    best_attr = a
                    best_matrix = matrix
                    best_mask = mask

        score = float(best[0])
        parent_imp = float(impurity(counts, config.criterion))
        if not np.isfinite(score) or parent_imp - score < config.min_improvement:
            return None

        values, _rids, _labels = work.per_attr[best_attr]
        if schema[best_attr].is_continuous:
            threshold = float(best[2])
            node = {"type": "continuous", "attr_index": best_attr,
                    "threshold": threshold, "children": [None, None]}
            child_of_winner = (values >= threshold).astype(np.int64)
            return node, child_of_winner, 2
        value_to_child, n_children, default = categorical_children_layout(
            best_matrix, best_mask
        )
        node = {"type": "categorical", "attr_index": best_attr,
                "value_to_child": value_to_child.tolist(),
                "default_child": int(default),
                "children": [None] * n_children}
        child_of_winner = value_to_child[values].astype(np.int64)
        return node, child_of_winner, n_children

    # ------------------------------------------------------------------

    def _perform_split(self, work: _NodeLists, winner_attr: int,
                       child_of_winner: np.ndarray, n_children: int,
                       stats: SprintRunStats,
                       level_acc: dict[int, list[tuple[int, int]]]):
        """Split every list via the record-id → child hash table, honoring
        the memory budget with real multi-pass probing."""
        n = work.n_records
        n_attrs = len(work.per_attr)
        budget = self.memory_budget_entries
        winner_rids = work.per_attr[winner_attr][1]

        # slice the winner list into hash-table-sized builds
        if budget is None or n <= budget:
            slices = [slice(0, n)]
        else:
            slices = [slice(lo, min(lo + budget, n))
                      for lo in range(0, n, budget)]
        n_passes = len(slices)
        stats.passes += n_passes
        stats.peak_hash_entries = max(
            stats.peak_hash_entries,
            min(n, budget) if budget is not None else n,
        )

        # child assignment of every list entry, filled pass by pass
        child_per_attr = [
            child_of_winner if a == winner_attr
            else np.full(n, -1, dtype=np.int64)
            for a in range(n_attrs)
        ]
        scanned = 0
        for sl in slices:
            # build the (bounded) hash table from this slice of the
            # winner's list: sorted rids + their children
            hash_rids = winner_rids[sl]
            hash_children = child_of_winner[sl]
            order = np.argsort(hash_rids)
            hash_rids = hash_rids[order]
            hash_children = hash_children[order]
            for a in range(n_attrs):
                if a == winner_attr:
                    continue
                rids = work.per_attr[a][1]
                scanned += len(rids)  # a full probe pass over this list
                pos = np.searchsorted(hash_rids, rids)
                pos = np.minimum(pos, len(hash_rids) - 1)
                hit = hash_rids[pos] == rids
                child_per_attr[a][hit] = hash_children[pos[hit]]

        minimum = (n_attrs - 1) * n
        stats.entries_scanned += scanned
        stats.extra_io_entries += scanned - minimum
        level_acc.setdefault(work.depth, []).append(
            (n_passes, scanned - minimum)
        )

        # physically split every list (stable → sorted order preserved)
        children_lists: list[list] = [[] for _ in range(n_children)]
        for a in range(n_attrs):
            values, rids, labels = work.per_attr[a]
            child = child_per_attr[a]
            for c in range(n_children):
                pick = child == c
                children_lists[c].append(
                    (values[pick], rids[pick], labels[pick])
                )
        return children_lists

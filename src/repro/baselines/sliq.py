"""SLIQ (Mehta, Agrawal & Rissanen, EDBT 1996) — the paper's other
ancestor, reimplemented.

§1 positions ScalParC against both SLIQ and SPRINT.  SLIQ's design:

* continuous attribute lists of (value, record id) are presorted **once**
  and — unlike SPRINT — are **never reorganized**: every tree level scans
  the full lists in sorted order;
* a memory-resident **class list** maps every record id to its (class
  label, current leaf); the scan looks up each entry's leaf through it
  and accumulates per-leaf count matrices on the fly;
* the splitting phase is just a class-list update (no data movement).

Its two famous properties fall out directly: the class list is an O(N)
in-memory structure (the scalability wall SPRINT then removed), and every
level re-reads *all* attribute lists even when most leaves are settled.
Both are measured by :class:`SliqStats`.

Sharing this repo's split kernels, canonical candidate order and level
loop (:mod:`repro.core.frontier` — SLIQ is :class:`SliqSource` plugged
into it), SLIQ's trees are bit-identical to the serial reference's — so
the three-way lineage (SLIQ → SPRINT → ScalParC) is comparable purely on
cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..core.config import InductionConfig
from ..core.criteria import split_score_from_left
from ..core.findsplit import categorical_rows
from ..core.frontier import CatState, LevelFrontier, LevelSource, \
    grow_levels
from ..core.splits import candidate_beats, pack_candidates
from ..core.splitter import LevelDecisions
from ..datagen.schema import Dataset
from ..tree.model import DecisionTree

__all__ = ["SliqClassifier", "SliqSource", "SliqStats"]


@dataclass
class SliqStats:
    """Measured cost profile of one SLIQ run."""

    #: bytes of the memory-resident class list (label + leaf per record)
    class_list_bytes: int = 0
    #: total attribute-list entries read across all level scans — SLIQ
    #: re-reads every list fully at every level
    entries_scanned: int = 0
    #: number of tree levels processed
    levels: int = 0
    #: per-level count of still-active (non-settled) records
    active_per_level: list = field(default_factory=list)


class SliqSource(LevelSource):
    """SLIQ's data layout as the :class:`~repro.core.frontier.LevelSource`
    of the shared level loop: presorted lists of ``attrs`` (default: every
    attribute) that are never reorganized, plus the resident class list."""

    def __init__(self, dataset: Dataset, config: InductionConfig,
                 attrs: Iterable[int] | None = None):
        self.schema = dataset.schema
        self.config = config
        n = dataset.n_records
        # presort once: (sorted values, rids) per continuous attribute;
        # categorical lists stay in record order
        self.lists: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for a in range(len(self.schema)) if attrs is None else attrs:
            col = dataset.columns[a]
            rids = np.arange(n, dtype=np.int64)
            if self.schema[a].is_continuous:
                order = np.lexsort((rids, col))
                self.lists[a] = (col[order].astype(np.float64), rids[order])
            else:
                self.lists[a] = (col.astype(np.int64), rids)

        # the class list: label + current leaf of every record (resident)
        self.klass = dataset.labels.astype(np.int64)
        self.leaf_of = np.zeros(n, dtype=np.int64)  # all records start at root
        self.stats = SliqStats(
            class_list_bytes=int(self.klass.nbytes + self.leaf_of.nbytes)
        )

    def class_totals(self, level: int, fids: np.ndarray) -> np.ndarray:
        live = self.leaf_of >= 0
        self.stats.levels += 1
        self.stats.active_per_level.append(int(np.count_nonzero(live)))
        n_classes = self.schema.n_classes
        return np.bincount(
            self.leaf_of[live] * n_classes + self.klass[live],
            minlength=len(fids) * n_classes,
        ).reshape(len(fids), n_classes)

    def best_splits(self, totals: np.ndarray, candidates: np.ndarray
                    ) -> tuple[np.ndarray, CatState]:
        """One full scan of every attribute list (the SLIQ level scan)."""
        best = pack_candidates(len(totals))
        cat_state: CatState = {}
        for a in self.lists:
            rows, state = self.scan_attribute(a, totals, candidates)
            if state:
                cat_state[a] = state
            take = candidate_beats(rows, best)
            best = np.where(take[:, None], rows, best)
        return best, cat_state

    def scan_attribute(
        self, attr: int, totals: np.ndarray, candidates: np.ndarray
    ) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray | None]]]:
        """One pass over one attribute list, each entry's leaf looked up
        in the class list: ``(candidate rows, categorical scorer state)``
        of every candidate node (no state for continuous lists)."""
        values, rids = self.lists[attr]
        self.stats.entries_scanned += len(values)  # SLIQ reads everything
        nodes = self.leaf_of[rids]
        live = nodes >= 0
        spec = self.schema[attr]
        if spec.is_continuous:
            return _scan_continuous(
                values[live], nodes[live], self.klass[rids[live]], totals,
                candidates, attr, self.config,
            ), {}
        m, n_classes = totals.shape
        matrix = np.bincount(
            (nodes[live] * spec.n_values + values[live]) * n_classes
            + self.klass[rids[live]],
            minlength=m * spec.n_values * n_classes,
        ).reshape(m, spec.n_values, n_classes)
        cand = np.nonzero(candidates)[0]
        return categorical_rows(attr, matrix[cand], cand, m, self.config)

    def child_assignments(self, decisions: LevelDecisions
                          ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(record ids, next-level node ids)`` of every splitting node
        whose winning attribute's list is held here — read straight off
        the decision, no data movement."""
        for k in np.nonzero(decisions.splitting)[0]:
            attr = int(decisions.winner_attr[k])
            if attr not in self.lists:
                continue
            values, rids = self.lists[attr]
            in_node = self.leaf_of[rids] == k
            if self.schema[attr].is_continuous:
                child = (values[in_node] >= decisions.threshold[k]
                         ).astype(np.int64)
            else:
                child = decisions.cat_layouts[int(k)][values[in_node]]
            yield rids[in_node], decisions.child_base[k] + child

    def partition(self, decisions: LevelDecisions) -> None:
        # the SLIQ splitting phase: pure class-list update
        new_leaf = np.full(len(self.leaf_of), -1, dtype=np.int64)
        for rids, ids in self.child_assignments(decisions):
            new_leaf[rids] = ids
        self.leaf_of = new_leaf


class SliqClassifier:
    """Serial SLIQ with exact shared split semantics."""

    def __init__(self, config: InductionConfig | None = None):
        self.config = config or InductionConfig()

    def fit(self, dataset: Dataset) -> tuple[DecisionTree, SliqStats]:
        """Induce the decision tree; returns (tree, cost profile)."""
        if dataset.n_records == 0:
            raise ValueError("cannot induce a tree from an empty dataset")
        source = SliqSource(dataset, self.config)
        tree = grow_levels(LevelFrontier(dataset.schema), self.config,
                           source)
        return tree, source.stats


def _scan_continuous(values, nodes, labels, totals, candidate_nodes,
                     attr_index, config):
    """Per-node best (score, threshold) from one sorted-list scan."""
    m, n_classes = totals.shape
    out = pack_candidates(m)
    n_live = len(values)
    if n_live == 0:
        return out
    # group by node (stable keeps sorted value order inside each node)
    perm = np.argsort(nodes, kind="stable")
    v = values[perm]
    lab = labels[perm]
    node_sorted = nodes[perm]
    # exclusive per-class cumulative counts within node segments
    excl = np.empty((n_live, n_classes), dtype=np.int64)
    for j in range(n_classes):
        onehot = lab == j
        cum = np.cumsum(onehot)
        excl[:, j] = cum - onehot
    starts = np.concatenate(([True], node_sorted[1:] != node_sorted[:-1]))
    seg_start_idx = np.nonzero(starts)[0]
    seg_of = np.cumsum(starts) - 1
    seg_base = excl[seg_start_idx]
    left = excl - seg_base[seg_of]
    valid = np.concatenate(([False], v[1:] > v[:-1])) & ~starts
    valid &= candidate_nodes[node_sorted]
    if not valid.any():
        return out
    v_nodes = node_sorted[valid]
    v_thr = v[valid]
    scores = split_score_from_left(left[valid], totals[v_nodes],
                                   config.criterion)
    order = np.lexsort((v_thr, scores, v_nodes))
    first = np.unique(v_nodes[order], return_index=True)[1]
    pick = order[first]
    winners = v_nodes[order][first]
    out[winners, 0] = scores[pick]
    out[winners, 1] = float(attr_index)
    out[winners, 2] = v_thr[pick]
    return out

"""SLIQ/R: attribute-partitioned (vertical) parallelism with a replicated
class list.

The SPRINT paper (which ScalParC §1 builds on) discusses parallelizing
SLIQ by **partitioning attributes** across processors — each processor
owns the complete sorted lists of a subset of attributes — while the
class list is **replicated** (SLIQ/R).  Split determination is then
embarrassingly parallel per attribute, but the splitting phase must ship
the record→child outcome of the winning attribute to every processor,
an O(N)-per-processor exchange each level, and the replicated class list
keeps per-processor memory Ω(N).

This implementation is the serial SLIQ level source restricted to a
rank's attributes plus three exchanges (BEST_SPLIT reduction for the
global winner, layout allgather, class-list allreduce), plugged into the
shared level loop; trees are identical to every other classifier here.
It exists as the *third* parallel comparator: horizontal ScalParC (O(N/p)
everything) vs horizontal SPRINT (O(N) splitting) vs vertical SLIQ/R
(O(N) class list + O(N) level exchange, plus a hard parallelism cap at
n_attributes).
"""

from __future__ import annotations

import numpy as np

from ..core.classifier import FitResult, SpmdClassifier
from ..core.config import InductionConfig
from ..core.frontier import CatState, Layouts, LevelFrontier, grow_levels
from ..core.splits import BEST_SPLIT
from ..core.splitter import LevelDecisions
from ..datagen.schema import Dataset
from ..runtime import Communicator, reduction
from ..tree.model import DecisionTree
from .sliq import SliqSource

__all__ = ["VerticalSliqClassifier", "vertical_sliq_worker"]


class _VerticalSource(SliqSource):
    """SLIQ's level source over this rank's attributes ``a ≡ r (mod p)``,
    with the three exchanges that keep the replicated class list and the
    tree identical everywhere."""

    def __init__(self, comm: Communicator, dataset: Dataset,
                 config: InductionConfig):
        # presort my attributes once (full columns — vertical partitioning)
        super().__init__(dataset, config, range(
            comm.rank, len(dataset.schema), comm.size))
        self.comm = comm
        comm.perf.register_bytes("vertical_attr_lists", sum(
            values.nbytes + rids.nbytes
            for values, rids in self.lists.values()))
        # the replicated class list — Ω(N) on every rank
        comm.perf.register_bytes("replicated_class_list",
                                 self.stats.class_list_bytes)

    def class_totals(self, level: int, fids: np.ndarray) -> np.ndarray:
        totals = super().class_totals(level, fids)
        self.comm.perf.add_compute("scan", self.stats.active_per_level[-1])
        return totals

    def best_splits(self, totals: np.ndarray, candidates: np.ndarray
                    ) -> tuple[np.ndarray, CatState]:
        # split determination: my attributes only, each list read in full
        for _ in self.lists:
            self.comm.perf.add_compute("scan", len(self.klass))
        local_best, cat_state = super().best_splits(totals, candidates)
        return self.comm.allreduce(local_best, BEST_SPLIT), cat_state

    def share_layouts(self, layouts: Layouts) -> Layouts:
        # categorical layouts come from the owning rank
        merged: Layouts = {}
        for part in self.comm.allgather(layouts):
            merged.update(part)
        return merged

    def partition(self, decisions: LevelDecisions) -> None:
        # each rank fills child assignments for nodes whose winning
        # attribute it owns; an elementwise-MAX allreduce over the full
        # N-entry array replicates the updated class list everywhere —
        # the O(N)-per-processor step that caps SLIQ/R's scalability
        partial = np.full(len(self.leaf_of), -1, dtype=np.int64)
        for rids, ids in self.child_assignments(decisions):
            partial[rids] = ids
            self.comm.perf.add_compute("split", len(rids))
        self.leaf_of = self.comm.allreduce(partial, reduction.MAX)


def vertical_sliq_worker(
    comm: Communicator,
    dataset: Dataset,
    config: InductionConfig | None = None,
) -> DecisionTree:
    """SPMD worker: vertical SLIQ/R induction.

    Rank r owns attributes ``a ≡ r (mod p)`` in full; the class list
    (labels + current leaf of all N records) is replicated everywhere.
    """
    config = config or InductionConfig()
    if dataset.n_records == 0:
        raise ValueError("cannot induce a tree from an empty dataset")
    return grow_levels(LevelFrontier(dataset.schema), config,
                       _VerticalSource(comm, dataset, config))


class VerticalSliqClassifier(SpmdClassifier):
    """Driver for the vertical SLIQ/R formulation (comparison baseline);
    same constructor as :class:`~repro.core.classifier.ScalParC`.

    ``n_processors`` beyond the attribute count adds idle ranks — the
    formulation's intrinsic parallelism cap, visible in the stats.
    """

    def fit(self, dataset: Dataset) -> FitResult:
        """Train on the simulated machine; returns tree + priced stats."""
        return self._launch(vertical_sliq_worker, dataset)

"""Parallel SPRINT's splitting phase: the replicated hash table (§3.2).

The paper's key negative result: SPRINT's parallel formulation "builds the
required hash table **on all the processors** for each node of the
decision tree … since each processor has to receive the entire hash table,
the amount of communication overhead per processor is proportional to the
size of the hash table, which is O(N) … the approach is not scalable in
terms of memory requirements also, because the hash table size on each
processor is O(N) for the top node as well as for nodes at the upper
levels."

This module reimplements exactly that formulation as a
:class:`~repro.core.splitter.SplitPhase`: split determination is shared
with ScalParC (it *is* efficient — §3.2), but the record→child mapping is
replicated everywhere via an allgatherv of every rank's (record id,
next-level node) pairs.  Experiment E4 measures the resulting O(N)
per-rank traffic and memory against ScalParC's O(N/p).

Trees produced are — by construction — identical to ScalParC's and the
serial reference's; only cost characteristics differ.
"""

from __future__ import annotations

import numpy as np

from ..core.attribute_lists import LocalAttributeList, block_leaders, \
    regroup_lists
from ..core.classifier import FitResult, SpmdClassifier
from ..core.config import InductionConfig
from ..core.induction import induce_worker
from ..core.splitter import LevelDecisions, SplitPhase, _local_children
from ..datagen.schema import Dataset
from ..runtime import Communicator
from ..runtime.checkpoint import resolve_checkpoint
from ..tree.model import DecisionTree

__all__ = ["ReplicatedSprintSplitPhase", "sprint_worker", "ParallelSPRINT"]


class ReplicatedSprintSplitPhase(SplitPhase):
    """SPRINT's splitting phase: every rank holds the full N-entry table."""

    def __init__(self) -> None:
        self.n_total = 0
        self.table: np.ndarray | None = None

    def setup(self, comm: Communicator, n_total: int) -> None:
        self.n_total = n_total
        # the full record-id → node mapping, replicated on every rank:
        # the O(N)-per-processor memory §3.2 calls out
        self.table = np.full(n_total, -1, dtype=np.int32)
        comm.perf.register_bytes("sprint_replicated_table", self.table.nbytes)

    def execute(
        self,
        comm: Communicator,
        lists: list[LocalAttributeList],
        decisions: LevelDecisions,
    ) -> None:
        assert self.table is not None, "setup() must run before execute()"

        # gather every rank's (rid, child) pairs from the winner lists —
        # the O(N) per-processor communication step
        rid_parts: list[np.ndarray] = []
        id_parts: list[np.ndarray] = []
        winner_entries = []
        for alist in lists:
            entries, ids = _local_children(alist, decisions)
            winner_entries.append((entries, ids))
            comm.perf.add_compute("split", len(entries))
            if len(entries):
                rid_parts.append(alist.rids[entries])
                id_parts.append(ids)
        my_rids = np.concatenate(rid_parts) if rid_parts else \
            np.empty(0, dtype=np.int64)
        my_ids = np.concatenate(id_parts) if id_parts else \
            np.empty(0, dtype=np.int64)

        all_rids = comm.allgatherv(my_rids)
        all_ids = comm.allgatherv(my_ids.astype(np.int32))
        self.table[all_rids] = all_ids
        comm.perf.add_compute("table", len(all_rids))

        # split every record block locally against the replicated table
        lead = block_leaders(lists)
        new_nodes_of: list[np.ndarray | None] = []
        for i, (alist, (entries, ids)) in enumerate(zip(lists,
                                                        winner_entries)):
            if lead[i] != i:
                new_nodes_of.append(None)
                continue
            nodes = alist.entry_nodes()
            new_nodes = np.full(alist.n_local, -1, dtype=np.int64)
            if len(entries):
                new_nodes[entries] = ids
            need = decisions.splitting[nodes] & (
                decisions.winner_attr[nodes] != alist.attr_index
            )
            new_nodes[need] = self.table[alist.rids[need]]
            new_nodes_of.append(new_nodes)
        regroup_lists(comm, lists, new_nodes_of, decisions.n_next)


def sprint_worker(
    comm: Communicator,
    dataset: Dataset,
    config: InductionConfig | None = None,
) -> DecisionTree:
    """SPMD worker running induction with SPRINT's replicated-table
    splitting phase."""
    return induce_worker(
        comm, dataset, config, split_phase=ReplicatedSprintSplitPhase()
    )


class ParallelSPRINT(SpmdClassifier):
    """Drop-in counterpart of :class:`~repro.core.classifier.ScalParC`
    (same constructor) running the parallel SPRINT formulation
    (comparison baseline)."""

    def fit(self, dataset: Dataset) -> FitResult:
        """Train on the simulated machine; returns tree + priced stats.

        The replicated table cannot be checkpointed: with
        ``REPRO_SPMD_CHECKPOINT`` set the fit is refused here with a
        :class:`~repro.runtime.checkpoint.CheckpointError`, before any
        rank is launched.
        """
        if resolve_checkpoint(None) is not None:
            ReplicatedSprintSplitPhase().require_checkpointable()
        return self._launch(sprint_worker, dataset)

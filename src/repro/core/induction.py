"""Level-synchronous tree-induction driver (Figure 2).

::

    Presort
    l = 0
    do while (there are non-empty nodes at level l)
        FindSplitI ; FindSplitII
        PerformSplitI ; PerformSplitII
        l = l + 1
    end do

Every rank runs this loop; all tree-shaping information (per-node class
totals, winning splits, categorical child layouts) is global after the
level's reductions, so every rank builds an identical copy of the decision
tree — the driver returns rank 0's copy, and the test suite asserts the
copies (and the serial reference's tree) are structurally equal.

The loop and every tree-shaping rule live in :mod:`repro.core.frontier`
(shared with streaming); this module supplies ScalParC's side
of it — Presort, the :class:`_ListSource` of per-level statistics and
record partitioning, and the checkpoint cut/resume path.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass

import numpy as np

from ..datagen.schema import Dataset
from ..runtime import Communicator, SelfCommunicator
from ..runtime.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    LevelCheckpointer,
    LoadedCheckpoint,
    rank_extras,
    resolve_checkpoint,
    restore_rank_extras,
)
from ..tree.model import DecisionTree
from .attribute_lists import LocalAttributeList, build_local_lists, \
    hand_off_lists, restore_local_lists, snapshot_lists
from .config import InductionConfig
from .findsplit import node_class_totals
from .frontier import CatState, Layouts, LevelFrontier, LevelSource, \
    grow_levels
from .phases import FINDSPLIT1, FINDSPLIT2, HANDOFF, PRESORT, timed_phase
from .splitter import LevelDecisions, ScalParCSplitPhase, SplitPhase
from .strategies import SplitStrategy, make_strategy

__all__ = ["handoff_due", "induce_worker", "lpt_owners"]

#: manifest tag identifying induction checkpoints (vs. other workers')
_CKPT_ALGO = "scalparc-induction"


def handoff_due(sizes: np.ndarray, n_ranks: int) -> bool:
    """The hand-off rule: on more than one rank, every candidate node of
    the pass holds at most Σn / (2p) of the pass's Σn candidate records
    (``sizes``, global counts).  Then longest-processing-time assignment
    gives no rank more than 1.5·Σn / p of them."""
    return n_ranks > 1 and 2 * n_ranks * int(sizes.max()) <= int(sizes.sum())


def lpt_owners(sizes: np.ndarray, n_ranks: int) -> np.ndarray:
    """Owner rank of each node by longest processing time first: nodes in
    decreasing size (ties: lower index first), each to the least-loaded
    rank (ties: lower rank).  A function of ``sizes`` alone, so every
    rank computes the same assignment."""
    owners = np.empty(len(sizes), dtype=np.int64)
    loads = [(0, r) for r in range(n_ranks)]
    for k in np.argsort(-sizes, kind="stable").tolist():
        load, r = heapq.heappop(loads)
        owners[k] = r
        heapq.heappush(loads, (load + int(sizes[k]), r))
    return owners


def induce_worker(
    comm: Communicator,
    dataset: Dataset,
    config: InductionConfig | None = None,
    split_phase: SplitPhase | None = None,
    checkpoint: CheckpointConfig | str | None = None,
) -> DecisionTree:
    """SPMD worker: induce the decision tree for ``dataset`` collectively.

    Each rank operates on its ⌈N/p⌉ record block; the returned tree is
    identical on every rank.  ``split_phase`` selects the splitting-phase
    strategy (default: ScalParC's distributed node table; the parallel
    SPRINT baseline plugs in its replicated table here).

    ``checkpoint`` enables level-boundary checkpointing (a
    :class:`~repro.runtime.checkpoint.CheckpointConfig`, a directory
    path, or ``None`` to defer to ``REPRO_SPMD_CHECKPOINT``).  With
    ``resume`` set in the config, induction skips Presort and continues
    from the cut's frontier — on the checkpoint's world size or a
    different one (attribute lists and node table are re-blocked), with
    a bit-identical resulting tree either way.
    """
    config = config or InductionConfig()
    strategy = make_strategy(config)
    split_phase = split_phase if split_phase is not None \
        else ScalParCSplitPhase()
    if dataset.n_records == 0:
        raise ValueError("cannot induce a tree from an empty dataset")
    if len(dataset.schema) == 0:
        raise ValueError("dataset has no attributes")
    schema = dataset.schema

    ckpt_cfg = resolve_checkpoint(checkpoint)
    if ckpt_cfg is not None:
        split_phase.require_checkpointable()
    ckpt = LevelCheckpointer(ckpt_cfg) if ckpt_cfg is not None else None
    resume_src = ckpt_cfg.resume_source() if ckpt_cfg is not None else None

    if resume_src is not None:
        lists, n_total, frontier, level = _resume_from_checkpoint(
            comm, resume_src, dataset, config, split_phase
        )
    else:
        # Presort + initial distribution
        with timed_phase(comm, PRESORT):
            lists, n_total = build_local_lists(comm, dataset)
            strategy.prepare(comm, lists, config, schema.n_classes, n_total)
            split_phase.setup(comm, n_total)
        frontier, level = LevelFrontier(schema), 0

    tree = grow_levels(frontier, config, _ListSource(
        comm, dataset, config, lists, n_total, strategy, split_phase, ckpt
    ), level)

    if ckpt is not None:
        ckpt.finalize(comm)   # drain pipelined writes; seal the last cut
    return tree


@dataclass
class _ListSource(LevelSource):
    """The :class:`~repro.core.frontier.LevelSource` of ScalParC and
    parallel SPRINT: statistics from the presorted distributed attribute
    lists through the split strategy's collectives, records partitioned
    by the splitting phase, cuts taken at level boundaries."""

    comm: Communicator
    dataset: Dataset
    config: InductionConfig
    lists: list[LocalAttributeList]
    n_total: int
    strategy: SplitStrategy
    split_phase: SplitPhase
    ckpt: LevelCheckpointer | None

    def class_totals(self, level: int, fids: np.ndarray) -> np.ndarray:
        self.comm.level = level
        with timed_phase(self.comm, FINDSPLIT1):
            return node_class_totals(self.comm, self.lists[0], len(fids),
                                     self.dataset.schema.n_classes)

    def hand_off(self, level: int, frontier: LevelFrontier,
                 fids: np.ndarray, totals: np.ndarray,
                 candidates: np.ndarray) -> bool:
        # ScalParC's own splitting phase only, and only a strategy whose
        # split of a node is a function of that node's records
        comm = self.comm
        sizes = totals[candidates].sum(axis=1)
        if not (self.strategy.node_local
                and isinstance(self.split_phase, ScalParCSplitPhase)
                and handoff_due(sizes, comm.size)):
            return False
        owner = np.full(len(fids), -1, dtype=np.int64)
        owner[candidates] = lpt_owners(sizes, comm.size)
        if self.ckpt is not None:
            self.ckpt.finalize(comm)    # seal the last cut: none follows
        with timed_phase(comm, HANDOFF):
            lists = hand_off_lists(comm, self.lists, owner, self.n_total)

        # this rank's subtrees, grown by the same loop on a world of one
        mine = fids[owner == comm.rank]
        local = LevelFrontier.from_rows(
            frontier.schema,
            {name: col.copy() for name, col in frontier.rows().items()})
        local.open_[:] = False
        local.open_[mine] = True
        self_comm = SelfCommunicator(comm.perf)
        split_phase = copy.copy(self.split_phase)
        n_local = lists[0].n_local
        split_phase.setup(self_comm, n_local)
        grow_levels(local, self.config, _ListSource(
            self_comm, self.dataset, self.config, lists, n_local,
            self.strategy, split_phase, None), level)

        # every rank's rewritten and new rows, spliced by fid offset: a
        # rank's new fids follow those of the ranks before it
        n_old = len(frontier.kind)
        send = np.concatenate([mine, np.arange(n_old, len(local.kind))])
        head = np.stack([np.full(len(send), comm.rank), send], axis=1)
        with timed_phase(comm, HANDOFF):
            rows = comm.allgatherv(np.concatenate(
                [head.view(np.uint8), local.pack_rows(send)], axis=1))
        del local
        rank, fid = np.ascontiguousarray(rows[:, :16]).view(np.int64).T
        new = np.bincount(rank[fid >= n_old], minlength=comm.size)
        shift = (np.cumsum(new) - new)[rank]
        fid = np.where(fid >= n_old, fid + shift, fid)
        frontier.settle(fids, totals)
        frontier.open_[fids] = False
        frontier.put_rows(fid, rows[:, 16:])
        split = frontier.n_children[fid] > 0
        frontier.first_child[fid[split]] += shift[split]
        return True

    def best_splits(self, totals: np.ndarray, candidates: np.ndarray
                    ) -> tuple[np.ndarray, CatState]:
        # the split strategy owns local statistics, the collective plan
        # and candidate scoring (see repro.core.strategies); exact keeps
        # the pre-strategy schedule bit for bit, voted swaps the
        # per-attribute exscans for a vote and elected count cubes
        local_best, cat_state = self.strategy.level_candidates(
            self.comm, self.lists, totals, candidates, self.config
        )
        with timed_phase(self.comm, FINDSPLIT2):
            best = self.strategy.global_best(self.comm, local_best,
                                             self.config)
        return best, cat_state

    def share_layouts(self, layouts: Layouts) -> Layouts:
        # each categorical winner's layout comes from its coordinator
        merged: Layouts = {}
        with timed_phase(self.comm, FINDSPLIT2):
            for part in self.comm.allgather(layouts):
                merged.update(part)
        return merged

    def partition(self, decisions: LevelDecisions) -> None:
        self.split_phase.execute(self.comm, self.lists, decisions)

    def end_level(self, level: int, frontier: LevelFrontier,
                  n_active: int) -> None:
        self.comm.perf.mark_level(level)
        # Records still in play next level = everything inside splitting
        # nodes.  Once that drops below min_frontier_frac of the training
        # set, a cut's barrier and fsync cost more than the cheap tail
        # levels it would protect, so stop taking them.
        ckpt = self.ckpt
        if (ckpt is not None and frontier.open_.any()
                and ckpt.should_save(level)
                and n_active >= ckpt.config.min_frontier_frac * self.n_total):
            self._save_cut(ckpt, level + 1, frontier)

    def _save_cut(self, ckpt: LevelCheckpointer, level: int,
                  frontier: LevelFrontier) -> None:
        """Write one consistent cut at a level boundary (collective).

        The per-rank payload carries everything distribution-dependent
        (attribute-list fragments, the split strategy's table share,
        tracker and RNG state); the replicated payload carries the
        frontier's per-node rows, a few arrays however many nodes they
        describe.

        List snapshots are *compact* (rids + offsets only; values and
        labels re-derived from the dataset on resume) whenever the dataset
        holds materialized columns; generate-on-demand sources cannot
        serve random access by record id, so their snapshots embed the
        arrays verbatim.
        """
        compact = getattr(self.dataset, "columns", None) is not None
        rank_payload = {
            "lists": snapshot_lists(self.lists, compact=compact),
            "split_phase": self.split_phase.snapshot_state(),
            **rank_extras(self.comm),
        }
        shared_payload = {
            **self.config.cut_header(_CKPT_ALGO, self.dataset.schema),
            "n_total": int(self.n_total),
            "rows": frontier.rows(),
        }
        ckpt.save(self.comm, level, rank_payload, shared_payload,
                  meta={"algo": _CKPT_ALGO, "n_total": int(self.n_total),
                        "n_pending": int(frontier.open_.sum())})


def _resume_from_checkpoint(
    comm: Communicator,
    source: str,
    dataset: Dataset,
    config: InductionConfig,
    split_phase: SplitPhase,
) -> tuple[list, int, LevelFrontier, int]:
    """Reload a cut and return ``(lists, n_total, frontier, level)``.

    Every rank reads all old ranks' payloads (digest-validated), so the
    p == p′ fast path and the p → p′ re-blocked path share one code
    path; tracker/RNG state is restored only when the world size
    matches (it is meaningless per-rank otherwise).
    """
    loaded = LoadedCheckpoint.open(source)
    shared = loaded.expect(**config.cut_header(_CKPT_ALGO, dataset.schema))
    if "rows" not in shared:
        raise CheckpointError(
            f"checkpoint {loaded.manifest_path!r} predates the table "
            "frontier of this driver (its partial tree is level blocks or a "
            "node graph, not per-node rows); restart the fit"
        )
    if int(shared["n_total"]) != dataset.n_records:
        raise CheckpointError(
            f"checkpoint holds {shared['n_total']} records but the dataset "
            f"has {dataset.n_records}; resume needs the same training set"
        )

    payloads = loaded.all_rank_payloads()
    lists = restore_local_lists(
        comm, dataset, [p["lists"] for p in payloads]
    )
    split_phase.restore_state(comm, [p["split_phase"] for p in payloads])
    if loaded.n_ranks == comm.size:
        restore_rank_extras(comm, payloads[comm.rank])

    return lists, int(shared["n_total"]), \
        LevelFrontier.from_rows(dataset.schema, shared["rows"]), loaded.level

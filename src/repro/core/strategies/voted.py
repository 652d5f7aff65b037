"""The voted split strategy: PV-Tree attribute voting over histograms.

PV-Tree ("A Communication-Efficient Parallel Algorithm for Decision
Tree", arXiv:1611.01276) observes that globalizing every attribute's
statistics is wasteful when only one attribute can win a node: each rank
first *votes* for the ``vote_top_k`` attributes its local data scores
best per node, one tiny allreduce elects the global top-k per node, and
only the elected attributes' statistics are globalized.

Two collectives per level, neither scaling with the attribute count in
its heavy term:

1. **vote round** (phase ``FindSplitI.vote``) — an allreduce of the
   (candidate nodes × attributes) vote tallies, uint8 when the world is
   small enough that tallies cannot overflow;
2. **election round** (phase ``FindSplitI.hist``) — an allreduce of a
   flat int32 buffer packing, per candidate node, the local count cubes
   of that node's elected attributes only (continuous: the histogram
   cube; categorical: the (value, class) matrix).  Slot offsets are
   derived from the replicated vote totals, so every rank builds the
   identical layout with no extra coordination.

Per-rank bytes per level ≈ ``2·m·A`` (votes) + ``2·m·k·B·c·4``
(elected cubes) versus exact's ``2·A·(c+2)·8·m`` exscan traffic — the
attribute factor ``A`` drops out of the heavy term, which is where the
measured ≥5× FindSplit byte reduction on wide schemas comes from.

The election is a heuristic: when local vote orders disagree wildly, the
globally best attribute can miss the ballot and the tree forks
differently from exact.  Accuracy on the Quest workloads stays within
1% of exact (``tests/test_split_strategies.py`` asserts it).
"""

from __future__ import annotations

import numpy as np

from ...runtime import reduction
from ..findsplit import (
    _categorical_local_cube,
    categorical_rows,
    score_categorical_cubes,
)
from ..phases import FINDSPLIT1_HIST, FINDSPLIT1_VOTE, timed_phase
from ..splits import candidate_beats, pack_candidates
from .base import categorical_ordinals
from .histogram import (
    HistogramSplitStrategy,
    continuous_local_cube,
    score_continuous_cube,
)

__all__ = ["VotedSplitStrategy"]


class VotedSplitStrategy(HistogramSplitStrategy):
    """Histogram statistics + per-node attribute voting (see module
    docstring)."""

    name = "voted"
    #: the ballot is cast from each rank's share of a node's records
    node_local = False

    def level_candidates(self, comm, lists, totals, candidate_nodes, config):
        m, n_classes = totals.shape
        cand = np.nonzero(candidate_nodes)[0]
        n_cand = len(cand)
        cand_row = np.full(m, -1, dtype=np.int64)
        cand_row[cand] = np.arange(n_cand)
        ordinals = categorical_ordinals(lists)
        n_attrs = len(lists)
        k = min(config.vote_top_k, n_attrs)

        # ---- local statistics + this rank's ballot ----------------------
        cubes: list[np.ndarray] = []       # per attr, (n_cand, W_a, c)
        widths = np.empty(n_attrs, dtype=np.int64)
        local_scores = np.full((n_cand, n_attrs), np.inf)
        for a, alist in enumerate(lists):
            if alist.spec.is_continuous:
                cube = continuous_local_cube(
                    comm, alist, cand_row, n_cand, n_classes
                )
                local_rows = score_continuous_cube(
                    alist, cube, cand, self._local_totals(cube, cand, m),
                    config,
                )
                local_scores[:, a] = local_rows[cand, 0]
            else:
                cube = _categorical_local_cube(
                    comm, alist, m, n_classes
                )[cand].astype(np.int32)
                # the ballot scores every categorical attribute on every
                # rank — including attributes that will lose every
                # election — so one batched pass covers all candidate
                # nodes (invalid nodes stay inf)
                local_scores[:, a] = score_categorical_cubes(cube, config)[0]
            cubes.append(cube)
            widths[a] = cube.shape[1] * n_classes

        # each rank votes for its k locally best attributes per node
        # (stable argsort → score ties break toward the lower attr index)
        ballot = np.argsort(local_scores, axis=1, kind="stable")[:, :k]
        vote_dtype = np.uint8 if comm.size <= 255 else np.int32
        votes = np.zeros((n_cand, n_attrs), dtype=vote_dtype)
        if n_cand:
            voted = np.isfinite(
                np.take_along_axis(local_scores, ballot, axis=1)
            )
            rows = np.repeat(np.arange(n_cand), k)[voted.ravel()]
            votes[rows, ballot.ravel()[voted.ravel()]] = 1
        with timed_phase(comm, FINDSPLIT1_VOTE):
            gvotes = comm.allreduce(votes, reduction.SUM)

        # ---- election: global top-k attributes per node ------------------
        # (replicated vote totals → identical winners on every rank)
        winners = np.argsort(
            -gvotes.astype(np.int64), axis=1, kind="stable"
        )[:, :k]

        # ---- pack the elected cubes into one flat allreduce --------------
        slot_w = widths[winners]                      # (n_cand, k)
        ends = np.cumsum(slot_w.ravel())
        starts = ends - slot_w.ravel()
        payload = np.zeros(int(ends[-1]) if len(ends) else 0,
                           dtype=np.int32)
        for i in range(n_cand):
            for j in range(k):
                s = int(starts[i * k + j])
                a = int(winners[i, j])
                payload[s:s + widths[a]] = cubes[a][i].ravel()
        comm.perf.transient_bytes(payload.nbytes)
        with timed_phase(comm, FINDSPLIT1_HIST):
            gflat = comm.allreduce(payload, reduction.SUM)

        # ---- score the elected global statistics -------------------------
        local_best = pack_candidates(m)
        cat_state: dict[int, dict[int, tuple]] = {}
        for a in np.unique(winners) if n_cand else []:
            alist = lists[a]
            idx, slot = np.nonzero(winners == a)
            sections = [
                gflat[int(starts[i * k + j]):
                      int(starts[i * k + j]) + widths[a]]
                for i, j in zip(idx, slot)
            ]
            cube = np.stack(sections).reshape(len(idx), -1, n_classes)
            if alist.spec.is_continuous:
                rows = score_continuous_cube(
                    alist, cube, cand[idx], totals, config
                )
            else:
                rows, state = categorical_rows(
                    alist.attr_index, cube.astype(np.int64), cand[idx], m,
                    config,
                )
                if state and comm.rank == self.coordinator_of(
                        alist, ordinals, comm.size):
                    cat_state[alist.attr_index] = state
            take = candidate_beats(rows, local_best)
            local_best = np.where(take[:, None], rows, local_best)
        return local_best, cat_state

    @staticmethod
    def _local_totals(cube: np.ndarray, cand: np.ndarray,
                      m: int) -> np.ndarray:
        """Per-node class totals of this rank's fragment (the voting
        round scores against local, not global, totals)."""
        totals = np.zeros((m, cube.shape[2]), dtype=np.int64)
        totals[cand] = cube.sum(axis=1, dtype=np.int64)
        return totals

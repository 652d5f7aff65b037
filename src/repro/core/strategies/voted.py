"""The voted split strategy: PV-Tree attribute voting over histograms.

PV-Tree ("A Communication-Efficient Parallel Algorithm for Decision
Tree", arXiv:1611.01276) observes that globalizing every attribute's
statistics is wasteful when only one attribute can win a node: each rank
first *votes* for the ``vote_top_k`` attributes its local data scores
best per node, one tiny allreduce elects the global top-k per node, and
only the elected attributes' statistics are globalized.

**Histograms.**  Continuous attributes are binned **once**, at presort
time: interior bin edges are drawn from the globally sorted order (the
values at positions ``j·N/n_bins``), and every entry's bin code is stored
alongside the list and maintained through every reorder.  Per level each
rank accumulates one per-(candidate node, bin, class) count cube per
continuous attribute.  Thresholds are *snapped*: boundary ``b`` reports
the left edge of the first non-empty bin to its right, an actual data
value derivable from the global cube alone.  Categorical attributes are
not binned; their (value, class) matrices are already dense.

**The vote.**  Two collectives per level, neither scaling with the
attribute count in its heavy term:

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

With ``n_bins >= n_distinct`` and ``vote_top_k`` at least the attribute
count, every attribute is elected, every splittable value has its own
bin edge, and the tree is bit-identical to exact's (integer count
matrices produce bit-identical float scores).  Fewer bins or a narrower
ballot trade split resolution for communication volume.

The election is a heuristic: when local vote orders disagree wildly, the
globally best attribute can miss the ballot and the tree forks
differently from exact.  What is tested is narrow: training accuracy on
400 F2 records within 1% of exact (``tests/test_split_strategies.py``).
Elsewhere it can fall well short of exact: 100k F7 records at depth 6
and p = 2 score 0.848 on a hold-out set, against exact's 0.946.
"""

from __future__ import annotations

import numpy as np

from ...runtime import Communicator, reduction
from ..attribute_lists import LocalAttributeList
from ..config import InductionConfig
from ..findsplit import (
    _categorical_local_cube,
    categorical_rows,
    score_boundaries,
    score_categorical_cubes,
)
from ..phases import FINDSPLIT1_HIST, FINDSPLIT1_VOTE, timed_phase
from ..splits import candidate_beats, pack_candidates
from .base import SplitStrategy, balanced_coordinator_of, categorical_ordinals

__all__ = ["VotedSplitStrategy"]


def draw_bin_edges(
    comm: Communicator,
    lists: list[LocalAttributeList],
    n_bins: int,
    n_total: int,
) -> None:
    """Attach global bin edges to every continuous list (collective).

    Edge candidates are the values at global sorted positions
    ``j·N/n_bins`` (j = 1 … n_bins−1).  Every rank holds a contiguous
    chunk of each attribute's global order, so exactly one rank owns each
    position: ranks contribute their owned values into a zero-filled
    (n_cont, n_edges) matrix and one allreduce(SUM) replicates the edge
    set — two collectives total for the whole schema, charged to Presort.
    Duplicate edges (heavy value ties) collapse via ``np.unique``, which
    is deterministic and identical on every rank.
    """
    cont = [alist for alist in lists if alist.spec.is_continuous]
    if not cont:
        return
    pos = np.unique(
        (np.arange(1, n_bins, dtype=np.int64) * n_total) // n_bins
    )
    pos = pos[(pos >= 1) & (pos < n_total)]
    n_locals = np.array([a.n_local for a in cont], dtype=np.int64)
    start = comm.exscan(n_locals, reduction.SUM)
    if len(pos) == 0:
        for alist in cont:
            alist.attach_bins(np.empty(0, dtype=np.float64))
        return
    contrib = np.zeros((len(cont), len(pos)), dtype=np.float64)
    for i, alist in enumerate(cont):
        off = int(start[i])
        mine = (pos >= off) & (pos < off + alist.n_local)
        if mine.any():
            contrib[i, mine] = alist.values[pos[mine] - off]
    edges = comm.allreduce(contrib, reduction.SUM)
    for i, alist in enumerate(cont):
        alist.attach_bins(np.unique(edges[i]))


def continuous_local_cube(
    comm: Communicator,
    alist: LocalAttributeList,
    cand_row: np.ndarray,
    n_cand: int,
    n_classes: int,
) -> np.ndarray:
    """This rank's (candidate node, bin, class) count cube (int32)."""
    n_bins = alist.n_bins_effective
    rows = cand_row[alist.entry_nodes()]
    sel = rows >= 0
    cube = np.bincount(
        (rows[sel] * n_bins + alist.bin_codes[sel]) * n_classes
        + alist.labels[sel],
        minlength=n_cand * n_bins * n_classes,
    ).reshape(n_cand, n_bins, n_classes).astype(np.int32)
    comm.perf.add_compute("scan", alist.n_local)
    comm.perf.transient_bytes(cube.nbytes)
    return cube


def score_continuous_cube(
    alist: LocalAttributeList,
    cube: np.ndarray,
    cand: np.ndarray,
    totals: np.ndarray,
    config: InductionConfig,
) -> np.ndarray:
    """Score one continuous attribute's (replicated) global count cube.

    ``cube`` is (len(cand), B, c); ``cand`` maps its rows to original
    node indices.  Returns (n_nodes, 3) candidate rows with this
    attribute's per-node best ``[score, attr, snapped threshold]``.
    """
    out = pack_candidates(len(totals))
    n_cand, n_bins, _n_classes = cube.shape
    if n_cand == 0 or n_bins < 2:
        return out
    cube64 = cube.astype(np.int64)
    # boundary b (between bins b and b+1): left side = bins 0..b
    left = np.cumsum(cube64, axis=1)[:, :-1, :]       # (n_cand, B-1, c)
    left_tot = left.sum(axis=2)
    node_tot = cube64.sum(axis=(1, 2))
    # snapped threshold: left edge of the first non-empty bin right of b
    occupied = cube64.sum(axis=2) > 0                 # (n_cand, B)
    idx = np.where(occupied, np.arange(n_bins)[None, :], n_bins)
    nxt = np.minimum.accumulate(idx[:, ::-1], axis=1)[:, ::-1]
    bstar = nxt[:, 1:]                                # per boundary b: ≥ b+1
    valid = (left_tot > 0) & (left_tot < node_tot[:, None]) & (bstar < n_bins)
    # np.nonzero on the 2-D mask is row-major, so cand[rows] is
    # non-decreasing — the segment contract score_boundaries requires
    rows, bounds = np.nonzero(valid)
    return score_boundaries(
        out, alist.attr_index, cand[rows], left[rows, bounds],
        alist.bin_edges[bstar[rows, bounds] - 1], totals, config.criterion,
    )


class VotedSplitStrategy(SplitStrategy):
    """Histogram statistics + per-node attribute voting (see module
    docstring)."""

    name = "voted"
    #: the ballot is cast from each rank's share of a node's records
    node_local = False

    def prepare(self, comm, lists, config, n_classes, n_total):
        draw_bin_edges(comm, lists, config.n_bins, n_total)

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
                if state and comm.rank == balanced_coordinator_of(
                        ordinals[alist.attr_index], comm.size):
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

"""The histogram split strategy: pre-binned continuous attributes.

Continuous attributes are binned **once**, at presort time: interior bin
edges are drawn from the globally sorted order (the values at positions
``j·N/n_bins``), every entry's bin code is stored alongside the list and
maintained through every reorder.  Per level, each rank accumulates one
per-(candidate node, bin, class) count cube per continuous attribute and
the cubes ride a single fused allreduce; scoring then happens on the
replicated global cubes — no exscans, no boundary-predecessor exchange.

Thresholds are *snapped*: boundary ``b`` reports the left edge of the
first non-empty bin to its right, which is an actual data value derivable
from the global cube alone.  With ``n_bins >= n_distinct`` the edge set
covers every splittable value, the candidate set equals the exact
strategy's, and the induced trees are bit-identical (integer count
matrices produce bit-identical float scores); with fewer bins the
strategy trades split resolution for communication volume.

Categorical attributes are not binned (their count cubes are already
dense and bounded by ``n_values``); they keep the exact strategy's
reduce-to-coordinator plan, but with the balanced coordinator mapping —
round-robin over the *categorical ordinal* rather than the raw attribute
index, so narrow schemas don't pile every coordinator on one rank.

Per-level collective cost per rank (c classes, B effective bins,
m candidate nodes): ``2·m·B·c·4`` bytes per continuous attribute
(int32 cube, allreduce counts payload + result) versus exact's
``2·(m·c·8 + m·2·8)`` exscan bytes — histogram wins only when
``B·c·4 < (c+2)·16``, i.e. for very coarse bins; the voted strategy
(:mod:`repro.core.strategies.voted`) is the mode that actually cuts
bytes, by not globalizing most attributes at all.
"""

from __future__ import annotations

import numpy as np

from ...runtime import Communicator, reduction
from .. import kernels
from ..attribute_lists import LocalAttributeList
from ..config import InductionConfig
from ..findsplit import _categorical_local_cube, _score_categorical
from ..phases import FINDSPLIT1_HIST, timed_phase
from ..splits import candidate_beats, pack_candidates
from .base import SplitStrategy, categorical_ordinals

__all__ = ["HistogramSplitStrategy"]


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


def score_boundaries(
    out: np.ndarray,
    attr_index: int,
    nodes: np.ndarray,
    left: np.ndarray,
    thresholds: np.ndarray,
    totals: np.ndarray,
    criterion: str,
) -> np.ndarray:
    """Fold one continuous attribute's candidate boundaries into ``out``.

    Boundary ``k`` belongs to node ``nodes[k]`` (a row of ``totals`` and
    ``out``; non-decreasing — the segment contract), has left-partition
    class counts ``left[k]`` and splits at ``thresholds[k]``.  Per node
    the lowest score wins (ties → smallest threshold) and replaces the
    node's ``out`` row only when strictly better — folding attributes in
    schema order therefore keeps the canonical (score, attribute,
    threshold) order.  Shared by the histogram strategy's bin boundaries
    and the streaming driver's sketch boundaries.
    """
    if len(nodes) == 0:
        return out
    scores = kernels.split_scores(left, totals[nodes], criterion)
    winners, best_scores, best_thr = kernels.segment_argmin(
        nodes, scores, thresholds
    )
    better = best_scores < out[winners, 0]
    upd = winners[better]
    out[upd, 0] = best_scores[better]
    out[upd, 1] = float(attr_index)
    out[upd, 2] = best_thr[better]
    return out


def score_continuous_cube(
    alist: LocalAttributeList,
    cube: np.ndarray,
    cand: np.ndarray,
    totals: np.ndarray,
    config: InductionConfig,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Score one continuous attribute's (replicated) global count cube.

    ``cube`` is (len(cand), B, c); ``cand`` maps its rows to original
    node indices.  Returns (n_nodes, 3) candidate rows with this
    attribute's per-node best ``[score, attr, snapped threshold]``.
    """
    edges = alist.bin_edges
    if out is None:
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
        edges[bstar[rows, bounds] - 1], totals, config.criterion,
    )


class HistogramSplitStrategy(SplitStrategy):
    """Pre-binned continuous FindSplit (see module docstring)."""

    name = "histogram"

    def prepare(self, comm, lists, config, n_classes, n_total):
        draw_bin_edges(comm, lists, config.n_bins, n_total)

    def level_candidates(self, comm, lists, totals, candidate_nodes, config):
        m, n_classes = totals.shape
        cand = np.nonzero(candidate_nodes)[0]
        cand_row = np.full(m, -1, dtype=np.int64)
        cand_row[cand] = np.arange(len(cand))
        ordinals = categorical_ordinals(lists)

        cont_pending: list[tuple[LocalAttributeList, object]] = []
        cat_pending: list[tuple[LocalAttributeList, object, int]] = []
        # one allreduce per continuous cube, one rooted reduce per
        # categorical cube, all in one fused batch
        with timed_phase(comm, FINDSPLIT1_HIST), comm.fused() as batch:
            for alist in lists:
                if alist.spec.is_continuous:
                    cube = continuous_local_cube(
                        comm, alist, cand_row, len(cand), n_classes
                    )
                    cont_pending.append(
                        (alist, batch.allreduce(cube, reduction.SUM))
                    )
                else:
                    local = _categorical_local_cube(comm, alist, m, n_classes)
                    root = self.coordinator_of(alist, ordinals, comm.size)
                    cat_pending.append(
                        (alist, batch.reduce(local, reduction.SUM, root=root),
                         root)
                    )

        local_best = pack_candidates(m)
        cat_state: dict[int, dict[int, tuple]] = {}
        for alist, cube_f in cont_pending:
            rows = score_continuous_cube(
                alist, cube_f.result(), cand, totals, config
            )
            take = candidate_beats(rows, local_best)
            local_best = np.where(take[:, None], rows, local_best)
        for alist, cube_f, root in cat_pending:
            rows, state = _score_categorical(
                comm, alist, candidate_nodes, config, cube_f.result(), root
            )
            if state:
                cat_state[alist.attr_index] = state
            take = candidate_beats(rows, local_best)
            local_best = np.where(take[:, None], rows, local_best)
        return local_best, cat_state

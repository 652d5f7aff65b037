"""FindSplitI / FindSplitII: the split-determining phases (§3.2, §4).

Per level of the tree, for every active node simultaneously:

* **FindSplitI** — for each continuous attribute, compute the local count
  matrix at the start of this rank's segment, then one parallel exclusive
  prefix (exscan of the per-(node, class) counts in rank order) yields the
  global count matrix at the rank's first split position.  For each
  categorical attribute, local count matrices are reduced to a designated
  coordinator processor.
* **FindSplitII** — the termination criterion is applied per node; ranks
  scan their local continuous segments for the lowest split impurity
  among the *valid* positions; the coordinator scores categorical
  splits; a single allreduce with the lexicographic BEST_SPLIT operator
  yields every node's global winner.

Candidate validity for a continuous attribute at sorted position i:
the predecessor value must be strictly smaller (splits never land inside a
run of duplicates).  Predecessors at rank boundaries are resolved with a
second tiny exscan carrying each rank's per-node (has-entries, last-value)
pair — O(m) traffic per level, never O(N).

The scan scores only class-boundary cuts (Fayyad & Irani 1992).  Between
two cuts where every record passing from right to left has one class j,
the weighted gini and entropy of the split are strictly concave in the
number of j records moved (unless the node is pure, where every cut
scores 0), so no cut inside such a run beats both of its ends.  A cut
between two value groups that are pure in the same class is therefore
skipped — unless either group holds its segment's first or last entry,
because the run may continue on the neighbouring rank and the end that
brackets it would then not be this rank's to score.  Each rank's local
best row, and so every BEST_SPLIT payload, equals the full scan's; the
performance ledger still prices the full scan (``docs/algorithm.md``,
"FindSplitII scores class-boundary cuts").
"""

from __future__ import annotations

import numpy as np

from ..runtime import Communicator, ReduceOp, reduction
from . import kernels
from .attribute_lists import LocalAttributeList
from .config import InductionConfig
from .criteria import best_binary_subset
from .phases import FINDSPLIT1, FINDSPLIT2, timed_phase
from .splits import BEST_SPLIT, candidate_beats, encode_mask, pack_candidates

__all__ = [
    "KEEP_LAST",
    "node_class_totals",
    "categorical_rows",
    "score_categorical_cubes",
    "score_boundaries",
    "level_candidates",
    "global_best_splits",
    "coordinator_of",
]

#: exscan operator carrying "the most recent rank's (flag, value) row":
#: rows with flag > 0 overwrite earlier rows elementwise; the flag couples
#: the cells of each row, so fusion must not flatten it
KEEP_LAST = ReduceOp(
    "keep_last",
    lambda a, b: np.where(b[..., 0:1] > 0, b, a),
    identity_like=lambda t: np.zeros_like(t),
    cellwise=False,
)


def coordinator_of(attr_index: int, size: int) -> int:
    """Designated coordinator rank for a categorical attribute (§4 assigns
    one processor to combine that attribute's count matrices)."""
    return attr_index % size


def node_class_totals(
    comm: Communicator, alist: LocalAttributeList, n_nodes: int, n_classes: int
) -> np.ndarray:
    """Global per-(active node, class) record counts, on every rank.

    Any single attribute's lists cover every record exactly once, so one
    bincount + allreduce gives the level's global class distribution.
    """
    local = np.bincount(
        alist.entry_nodes() * n_classes + alist.labels,
        minlength=n_nodes * n_classes,
    ).reshape(n_nodes, n_classes)
    comm.perf.add_compute("scan", alist.n_local)
    comm.perf.transient_bytes(local.nbytes)
    return comm.allreduce(local.astype(np.int64), reduction.SUM)


def _continuous_local_stats(
    comm: Communicator, alist: LocalAttributeList, n_nodes: int,
    n_classes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """FindSplitI's local compute for one continuous attribute:
    ``(local_counts, boundary)`` — its two exscan payloads."""
    n_local = alist.n_local
    # count matrix at the start of my fragment, per node
    local_counts = np.bincount(
        alist.entry_nodes() * n_classes + alist.labels,
        minlength=n_nodes * n_classes,
    ).reshape(n_nodes, n_classes).astype(np.int64)

    # boundary info: my per-node (has-entries, last-value) row
    boundary = np.zeros((n_nodes, 2), dtype=np.float64)
    nonempty = np.diff(alist.offsets) > 0
    boundary[nonempty, 0] = 1.0
    last_idx = np.minimum(alist.offsets[1:] - 1, n_local - 1)
    if n_local:
        boundary[nonempty, 1] = alist.values[last_idx[nonempty]]
    comm.perf.transient_bytes(local_counts.nbytes + boundary.nbytes)
    return local_counts, boundary


def _scan_candidates(
    comm: Communicator,
    alist: LocalAttributeList,
    totals: np.ndarray,
    candidate_nodes: np.ndarray,
    config: InductionConfig,
    below: np.ndarray,
    pred: np.ndarray,
) -> np.ndarray:
    """FindSplitII's local half for one continuous attribute, given its two
    exscan results: find this rank's best valid split position per node,
    as (n_nodes, 3) candidate rows ``[score, attr, threshold]`` (``inf``
    rows where none exists).

    Only the cuts that can win are scored: boundary validity, then
    :func:`~repro.core.kernels.class_boundary_cuts` drops every cut
    inside a pure-class run, then left counts at the kept cuts (the
    within-segment class prefix lifted by ``below``, the exscan result),
    one-pass criterion evaluation and a segmented argmin.  The rows are
    bit-identical to scoring every valid cut.  The ledger still books
    the paper's full scan: one pass over every entry and class, with the
    prefix of every entry and the left counts of every valid cut as its
    transient.
    """
    out = pack_candidates(totals.shape[0])
    n_local = alist.n_local
    if n_local == 0:
        return out
    n_classes = totals.shape[1]
    nodes = alist.entry_nodes()
    values = alist.values
    # enter the phase through the communicator (not the bare tracker) so
    # the collective tracer stamps the scan's region as FindSplitII too
    with timed_phase(comm, FINDSPLIT2):
        comm.perf.add_compute("scan", n_local * n_classes)
        # validity: strictly-larger value than the (global) predecessor
        valid = kernels.boundary_valid_mask(
            values, nodes, alist.offsets, candidate_nodes,
            pred[:, 0] > 0, pred[:, 1],
        )
        n_valid = int(np.count_nonzero(valid))
        # the full scan's transient: every entry's class prefix row plus
        # every valid cut's left-count row (int64)
        comm.perf.transient_bytes((n_local + n_valid) * n_classes * 8)
        if n_valid == 0:
            return out
        # integer gathers: one flatnonzero, then ``np.take`` row gathers
        # (several times cheaper than boolean masking / fancy row indexing)
        cuts = np.flatnonzero(kernels.class_boundary_cuts(
            valid, values, alist.labels, alist.offsets
        ))
        c_nodes = nodes.take(cuts)   # non-decreasing: the segment contract
        left = below.take(c_nodes, axis=0) + kernels.segment_class_prefix(
            alist.labels, alist.offsets, n_classes, nodes=nodes, at=cuts
        )
        scores = kernels.split_scores(
            left, totals.take(c_nodes, axis=0), config.criterion
        )
        # per-node minimum by (score, threshold)
        winners, best_scores, best_thr = kernels.segment_argmin(
            c_nodes, scores, values.take(cuts)
        )
    out[winners, 0] = best_scores
    out[winners, 1] = float(alist.attr_index)
    out[winners, 2] = best_thr
    return out


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
    threshold) order.  Shared by the voted strategy's bin boundaries and
    the streaming driver's sketch boundaries.
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


def _categorical_local_cube(
    comm: Communicator, alist: LocalAttributeList, n_nodes: int,
    n_classes: int,
) -> np.ndarray:
    """FindSplitI's local compute for one categorical attribute: the
    (node, value, class) count cube this rank contributes to the
    attribute's coordinator."""
    n_values = alist.spec.n_values
    local = np.bincount(
        (alist.entry_nodes() * n_values + alist.values.astype(np.int64))
        * n_classes + alist.labels,
        minlength=n_nodes * n_values * n_classes,
    ).reshape(n_nodes, n_values, n_classes).astype(np.int64)
    comm.perf.add_compute("scan", alist.n_local)
    comm.perf.transient_bytes(local.nbytes)
    return local


def score_categorical_cubes(
    cubes: np.ndarray, config: InductionConfig
) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Best categorical split of every (n_values, c) count matrix in the
    ``(k, n_values, c)`` stack ``cubes`` under the config's categorical
    policy: ``(scores, masks)`` with ``inf`` where fewer than two values
    occur.  ``masks[i]`` is the left-subset mask of a binary-subset
    split, ``None`` for the multiway (paper-default) split.

    Multiway scoring is one batched
    :func:`~repro.core.kernels.multiway_scores` pass; the per-node loop
    survives only for binary subsets, a combinatorial search per node.
    """
    if not config.categorical_binary_subsets:
        return (kernels.multiway_scores(cubes, config.criterion),
                [None] * len(cubes))
    found = [
        best_binary_subset(
            matrix, config.criterion,
            exhaustive_limit=config.subset_exhaustive_limit,
        )
        for matrix in cubes
    ]
    return (np.array([score for score, _ in found], dtype=np.float64),
            [mask for _, mask in found])


def categorical_rows(
    attr_index: int, matrices: np.ndarray, cand: np.ndarray, n_nodes: int,
    config: InductionConfig,
) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray | None]]]:
    """Candidate rows of one categorical attribute from its global count
    matrices — ``matrices[i]`` belongs to node ``cand[i]``.

    Returns ``(rows, state)``: the (n_nodes, 3) candidate matrix
    ``[score, attr, subset code]`` (``inf`` rows where no valid split
    exists; multiway splits carry code 0) and node → (count matrix, mask)
    for the nodes that have one — what the later child layout needs.
    """
    rows = pack_candidates(n_nodes)
    scores, masks = score_categorical_cubes(matrices, config)
    fin = np.flatnonzero(np.isfinite(scores)).tolist()
    hit = cand[fin]
    rows[hit, 0] = scores[fin]
    rows[hit, 1] = float(attr_index)
    rows[hit, 2] = [encode_mask(masks[i]) for i in fin]
    return rows, {int(cand[i]): (matrices[i], masks[i]) for i in fin}


def _score_categorical(
    comm: Communicator,
    alist: LocalAttributeList,
    candidate_nodes: np.ndarray,
    config: InductionConfig,
    matrices: np.ndarray | None,
    root: int,
) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray | None]]]:
    """Coordinator-side scoring of one categorical attribute's reduced
    count cubes; non-coordinators (``matrices is None``) return empty
    candidate rows."""
    if comm.rank != root or matrices is None:
        return pack_candidates(len(candidate_nodes)), {}
    cand = np.nonzero(candidate_nodes)[0]
    return categorical_rows(alist.attr_index, matrices[cand], cand,
                            len(candidate_nodes), config)


def level_candidates(
    comm: Communicator,
    lists: list[LocalAttributeList],
    totals: np.ndarray,
    candidate_nodes: np.ndarray,
    config: InductionConfig,
) -> tuple[np.ndarray, dict[int, dict[int, tuple[np.ndarray, np.ndarray | None]]]]:
    """FindSplit's level schedule: every attribute's FindSplitI collectives
    in one batch (the per-level analogue of §3.1's batching argument
    applied to the reductions themselves).

    One :meth:`~repro.runtime.communicator.Communicator.fused` batch
    carries all continuous attributes' count exscans (one
    ``fused_exscan(op=sum)``), all their boundary exscans (one
    ``fused_exscan(op=keep_last)``) and all categorical attributes' count
    cubes (one segmented ``fused_reduce(op=sum)`` routing each section to
    its own coordinator) — a constant ≤ 3 rendezvous per level however
    many attributes the schema has.

    Returns ``(local_best, cat_state)``: this rank's folded candidate rows
    over all attributes (``[score, attr, threshold or subset code]``,
    ``inf`` where none exists), and per-attribute coordinator state
    ``attr_index -> node -> (count matrix, subset mask)``, non-empty only
    on an attribute's coordinator.
    """
    n_nodes, n_classes = totals.shape
    cont_pending: list[tuple[LocalAttributeList, object, object]] = []
    cat_pending: list[tuple[LocalAttributeList, object, int]] = []
    with timed_phase(comm, FINDSPLIT1):
        with comm.fused() as batch:
            for alist in lists:
                if alist.spec.is_continuous:
                    local_counts, boundary = _continuous_local_stats(
                        comm, alist, n_nodes, n_classes
                    )
                    cont_pending.append((
                        alist,
                        batch.exscan(local_counts, reduction.SUM),
                        batch.exscan(boundary, KEEP_LAST),
                    ))
                else:
                    local = _categorical_local_cube(
                        comm, alist, n_nodes, n_classes
                    )
                    root = coordinator_of(alist.attr_index, comm.size)
                    cat_pending.append(
                        (alist, batch.reduce(local, reduction.SUM, root=root),
                         root)
                    )

    local_best = pack_candidates(n_nodes)
    cat_state: dict[int, dict[int, tuple[np.ndarray, np.ndarray | None]]] = {}
    for alist, below_f, pred_f in cont_pending:
        rows = _scan_candidates(
            comm, alist, totals, candidate_nodes, config,
            below_f.result(), pred_f.result(),
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


def global_best_splits(comm: Communicator, local_best: np.ndarray) -> np.ndarray:
    """Allreduce the per-node candidate rows with the BEST_SPLIT operator —
    FindSplitII's 'overall best splitting criteria for each node is found
    using a parallel reduction operation'.

    The allreduce rides the fusion layer as a batch of one: FindSplitII
    has no independent peer to pair it with (the termination stats it
    could share a buffer with are what *candidate_nodes*, and hence this
    very payload, is derived from), but going through the batch keeps
    the traced op — and so every trace digest — that of the level
    schedule.
    """
    with comm.fused() as batch:
        future = batch.allreduce(local_best, BEST_SPLIT)
    return future.result()

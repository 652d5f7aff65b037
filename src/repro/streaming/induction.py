"""Epoch-loop streaming induction (the chunked-ingest workload).

Records arrive in per-epoch chunks instead of being presorted up front
(pdsCART, arXiv:2505.11780; stream-split estimators, arXiv:2403.19867).
Each rank retains the records it has ingested, routes every new chunk
down the current tree to the *frontier* (the open leaves), and maintains
one mergeable quantile sketch per (frontier node, attribute) — see
:mod:`repro.streaming.sketch`.  The batch driver's level-synchronous
loop becomes an epoch loop::

    do while (records remain in the stream)
        Stream.ingest   — route this epoch's chunk, update local sketches
        Stream.sketch   — class totals of the frontier (SUM allreduce)
        Stream.grow     — split frontier nodes whose sketches have seen
                          enough mass; reopen closed leaves whose class
                          distribution shifted
        checkpoint cut  — every epoch boundary is a sealed resume point
    end do
    finalize            — grow the frontier to completion under the batch
                          termination rules

A grow round is level-synchronous like the batch driver's, and its
sketches go where ScalParC sends a level's count matrices — to the rank
that scores them::

    Stream.sketch   — class totals (SUM allreduce)
    Stream.grow     — refresh the leaves, close the terminal nodes
    Stream.sketch   — each scored node's local sketches to its scorer
                      (one alltoallv), folded there by merge_stacks
    Stream.grow     — the scorer scores its share (:func:`_score_nodes`)
                      and keeps the accepted splits; the winners, with
                      the counts their splits need, reach every rank (one
                      allgatherv) and the whole frontier splits
                      (:func:`_split_nodes`) in array passes

The class totals and the winners are global, so every rank builds an
identical tree — exactly the batch driver's replication argument — while
a node's merged sketches exist only on its scorer.  With
``stream_grow_records == 0`` (the default: growth only at finalize) and
lossless sketches, the streamed tree is **bit-identical** to batch
ScalParC's on the same record prefix; the differential suite pins this
with ``structurally_equal``.  Scoring, splitting and the sketch builds
run through the segment kernels, and the tree is per-fid table rows
(:class:`~repro.streaming.frontier.StreamState`): no node object exists.
"""

from __future__ import annotations

import numpy as np

from ..core import kernels
from ..core.config import InductionConfig
from ..core.findsplit import score_categorical_cubes
from ..core.frontier import accepted_splits, terminal_nodes
from ..core.phases import STREAM_GROW, STREAM_INGEST, STREAM_SKETCH, \
    timed_phase
from ..core.splits import categorical_children_layout, decode_mask, \
    encode_mask, pack_candidates
from ..core.strategies.histogram import score_boundaries
from ..datagen.schema import Dataset, Schema
from ..runtime import Communicator
from ..runtime.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    LevelCheckpointer,
    LoadedCheckpoint,
    rank_extras,
    resolve_checkpoint,
    restore_rank_extras,
)
from ..runtime.reduction import SUM
from ..runtime.tracing import tag_level
from ..tree.compile import KIND_CATEGORICAL, KIND_CONTINUOUS, KIND_LEAF
from ..tree.model import DecisionTree
from .frontier import ROWS, StreamState, transport_capacity
from .sketch import merge_stacks
from .source import ChunkSource

__all__ = ["stream_induce_worker"]

#: manifest tag identifying streaming-induction checkpoints
_CKPT_ALGO = "scalparc-streaming"


# ----------------------------------------------------------------------
# sketches to their scorer, winners to everyone
# ----------------------------------------------------------------------


def _cap_runs(caps: np.ndarray) -> list[tuple[int, int, int]]:
    """``(lo, hi, cap)`` of every run of equal capacity in sorted
    ``caps``: the groups a share of nodes travels and is folded in."""
    cuts = np.flatnonzero(np.diff(caps, prepend=0, append=0)).tolist()
    return [(lo, hi, int(caps[lo])) for lo, hi in zip(cuts[:-1], cuts[1:])]


def _scorer_shares(caps: np.ndarray, size: int) -> list[np.ndarray]:
    """Per rank, the positions of the scored nodes it scores — position
    ``j`` goes to rank ``j % size`` — ordered by transport capacity
    ``caps``, so a share travels and is folded as contiguous runs."""
    return [j[np.argsort(caps[j], kind="stable")]
            for j in (np.arange(r, len(caps), size) for r in range(size))]


def _sketches_to_scorers(comm: Communicator, state: StreamState,
                         fids: np.ndarray, caps: np.ndarray,
                         shares: list) -> list:
    """Send the local sketches of scored leaves ``fids`` to their
    scorers and fold what arrives.

    One ``alltoallv`` block per destination holds its share's capacity
    runs back to back, so the block a rank sends itself never travels.
    Returns ``(positions, stack)`` per run of this rank's share: the
    run's positions in ``fids`` and their global ``(n, n_attrs, cap,
    1+c)`` sketches — every rank's block folded in rank order by
    :func:`merge_stacks`, which merges cell by cell, so these are the
    same rows a fold of the whole frontier would give.
    """
    got = comm.alltoallv([np.concatenate([np.empty(0)] + [
        state.gather(fids[share[lo:hi]], cap).ravel()
        for lo, hi, cap in _cap_runs(caps[share])]) for share in shares])
    mine, folded, off = shares[comm.rank], [], 0
    for lo, hi, cap in _cap_runs(caps[mine]):
        shape = (hi - lo, state.n_attrs, cap, 1 + state.n_classes)
        size = int(np.prod(shape))
        folded.append((mine[lo:hi], merge_stacks(
            [block[off:off + size].reshape(shape) for block in got])))
        off += size
    return folded


def _count_rows(state: StreamState, attr: np.ndarray) -> np.ndarray:
    """The rows of a padded ``(n, W, c)`` count block (``W``: the slot
    row width) that winners on attributes ``attr`` need: row 0, the left
    child's class counts, of a continuous split; the ``n_values`` rows of
    a categorical one's count matrix."""
    return np.arange(state.slots.shape[1]) < np.maximum(
        state.widths[attr], 1)[:, None]


def _split_counts(state: StreamState, stack: np.ndarray,
                  best: np.ndarray) -> np.ndarray:
    """The :func:`_count_rows` of the accepted nodes of ``stack``
    (winning rows ``best``), back to back: everything strictly below a
    continuous threshold, or a categorical attribute's count matrix."""
    attr = best[:, 1].astype(np.int64)
    cells = stack[np.arange(len(stack)), attr]
    cat = state.widths[attr] > 0
    out = np.zeros((len(stack), state.slots.shape[1], state.n_classes))
    out[cat] = _count_cubes(cells[cat], out.shape[1])
    below = cells[~cat, :, 0] < best[~cat, 2, None]
    out[~cat, 0] = (cells[~cat, :, 1:] * below[:, :, None]).sum(axis=1)
    return out[_count_rows(state, attr)].ravel()


def _winners_to_everyone(comm: Communicator, state: StreamState,
                         shares: list, folded: list, totals: np.ndarray,
                         config: InductionConfig):
    """Score this rank's share, keep what :func:`accepted_splits` takes,
    and share the winners; returns ``(split, best, counts)``: every
    accepted position (ascending), its ``[score, attr, third]`` row and
    the ``(W, c)`` count block its split needs (:func:`_count_rows`).

    One ``allgatherv`` carries each rank's candidate rows in share order
    — a rejected node's as ``NO_CANDIDATE`` — followed by the counts of
    its accepted nodes, which the scorer already holds; the shares are
    known everywhere and a row's attribute says how many counts follow,
    so every rank can take the result apart.
    """
    rows, counts = [np.empty(0)], []
    for j, stack in folded:
        best = _score_nodes(stack, totals[j], state.schema, config)
        ok = accepted_splits(best, totals[j], np.ones(len(j), dtype=bool),
                             config)
        best[~ok] = np.inf
        rows.append(best.ravel())
        counts.append(_split_counts(state, stack[ok], best[ok]))
    got = comm.allgatherv(np.concatenate(rows + counts))

    best, off, c = pack_candidates(len(totals)), 0, state.n_classes
    need = np.zeros((len(totals), state.slots.shape[1], c))
    for share in shares:
        best[share] = got[off:off + 3 * len(share)].reshape(-1, 3)
        off += 3 * len(share)
        won = share[np.isfinite(best[share, 0])]
        i, r = np.nonzero(_count_rows(state, best[won, 1].astype(np.int64)))
        need[won[i], r] = got[off:off + c * len(i)].reshape(-1, c)
        off += c * len(i)
    split = np.flatnonzero(np.isfinite(best[:, 0]))
    return split, best[split], np.rint(need[split]).astype(np.int64)


# ----------------------------------------------------------------------
# split scoring from global sketches (batch-exact semantics)
# ----------------------------------------------------------------------


def _count_cubes(cells: np.ndarray, n_values: int) -> np.ndarray:
    """``(k, n_values, c)`` integer count matrices of ``k`` categorical
    sketches ``cells`` (``(k, cap, 1+c)``)."""
    rows, slots = np.nonzero(np.isfinite(cells[:, :, 0]))
    cubes = np.zeros((len(cells), n_values, cells.shape[2] - 1),
                     dtype=np.int64)
    cubes[rows, np.rint(cells[rows, slots, 0]).astype(np.int64)] = \
        np.rint(cells[rows, slots, 1:]).astype(np.int64)
    return cubes


def _score_nodes(stack: np.ndarray, totals: np.ndarray, schema: Schema,
                 config: InductionConfig) -> np.ndarray:
    """Best candidate split ``[score, attr, third]`` of every node of
    ``stack``, scored from its global sketches in one pass per
    attribute.

    Reproduces the batch FindSplit semantics exactly when the sketches
    are lossless: continuous candidates are the distinct values with a
    strictly smaller predecessor, the threshold is the value itself, the
    left partition counts everything strictly below it.  Attributes fold
    in schema order and replace a node's best only when strictly better,
    which is the canonical (score, attribute, threshold) order.
    """
    out = pack_candidates(len(stack))
    totals = totals.astype(np.float64)
    for attr, spec in enumerate(schema):
        cells = stack[:, attr]
        if spec.is_continuous:
            # boundary b splits below row b+1's value: valid iff occupied
            node, b = np.nonzero(np.isfinite(cells[:, 1:, 0]))
            left = np.cumsum(cells[:, :, 1:], axis=1)
            score_boundaries(out, attr, node, left[node, b],
                             cells[node, b + 1, 0], totals,
                             config.criterion)
            continue
        cubes = _count_cubes(cells, spec.n_values)
        scores, masks = score_categorical_cubes(cubes, config)
        third = np.array([encode_mask(mask) for mask in masks])
        better = scores < out[:, 0]
        out[better, 0] = scores[better]
        out[better, 1] = float(attr)
        out[better, 2] = third[better]
    return out


# ----------------------------------------------------------------------
# frontier mutation
# ----------------------------------------------------------------------


def _sync_leaves(state: StreamState, fids: np.ndarray,
                 totals: np.ndarray) -> None:
    """Write fresh global class totals into leaves ``fids`` (an empty
    leaf keeps its label)."""
    n = totals.sum(axis=1)
    state.class_counts[fids] = totals
    state.n_records[fids] = n
    state.leaf_label[fids[n > 0]] = np.argmax(totals[n > 0], axis=1)


def _close_leaves(state: StreamState, fids: np.ndarray,
                  totals: np.ndarray) -> None:
    _sync_leaves(state, fids, totals)
    state.open_[fids] = False
    state.sk_blk[fids] = -1


def _refresh_frontier(state: StreamState, g_counts: np.ndarray,
                      reopen_delta: float) -> None:
    """Sync leaf labels/counts with the fresh global totals; reopen
    closed leaves whose class distribution drifted past the threshold
    (a closed leaf keeps the counts it closed with until then)."""
    fids = np.flatnonzero(state.open_)
    _sync_leaves(state, fids, g_counts[fids])
    n = g_counts.sum(axis=1)
    fids = np.flatnonzero((state.kind == KIND_LEAF) & ~state.open_
                          & (state.n_records > 0) & (n > 0))
    dist = g_counts[fids] / n[fids, None]
    shift = 0.5 * np.abs(dist - state.class_counts[fids]
                         / state.n_records[fids, None]).sum(axis=1)
    fids = fids[shift > reopen_delta]
    if len(fids):
        state.open_[fids] = True
        _sync_leaves(state, fids, g_counts[fids])
        state.adopt([(fids, state.local_sketches(fids))])


def _split_nodes(state: StreamState, fids: np.ndarray, best: np.ndarray,
                 totals: np.ndarray, counts: np.ndarray,
                 config: InductionConfig, finalize: bool, order):
    """Split leaves ``fids`` in one pass: rewrite their rows as splits,
    re-route their retained records, append every child as a new leaf
    and build the open children's sketches from the exact retained data.

    ``best``/``totals``/``counts`` are aligned with ``fids``: the winning
    candidate row, the global class totals and the ``(W, c)`` count block
    the scorer sent (:func:`_count_rows`).  ``order`` is the grow pass's
    presort — ``(covered fids, per-attribute record order sorted by
    (node, value))`` or ``None`` — and the updated presort is returned: a
    split only regroups it (stable, so value order survives).

    During finalize the child totals are final, so a child the batch
    rules would close next round (pure, under-mass, at the depth cap)
    closes *now* — identical labels and reopen state, but it never pays
    sketch construction or transport.
    """
    c = state.n_classes
    attr = best[:, 1].astype(np.int64)
    thr = best[:, 2]
    cont = state.widths[attr] == 0

    # categorical winners: child layout per node, then one dense
    # (node, value) → child table shared by counting and routing
    cat = np.flatnonzero(~cont)
    v2c = np.full(counts.shape[:2], -1, dtype=np.int64)
    default = np.zeros(len(fids), dtype=np.int64)
    n_children = np.full(len(fids), 2, dtype=np.int64)
    for i, width in zip(cat.tolist(), state.widths[attr[cat]].tolist()):
        # a binary-subset winner carries its mask in the third slot
        # (0.0: the multiway split), so every rank rebuilds the layout
        mask = decode_mask(thr[i], width) \
            if config.categorical_binary_subsets and thr[i] != 0.0 else None
        v2c[i, :width], n_children[i], default[i] = \
            categorical_children_layout(counts[i, :width], mask)
    off = np.concatenate([[0], np.cumsum(n_children)])
    n_new = int(off[-1])
    child_counts = np.zeros((n_new, c), dtype=np.int64)
    k = np.flatnonzero(cont)
    child_counts[off[k]] = counts[k, 0]
    child_counts[off[k] + 1] = totals[k] - counts[k, 0]
    hit = v2c[cat] >= 0
    np.add.at(child_counts, (off[cat, None] + v2c[cat])[hit],
              counts[cat][hit])

    # route the retained records of every splitting node at once
    base = len(state.kind)
    index = np.full(base, -1, dtype=np.int64)
    index[fids] = np.arange(len(fids))
    node = index[state.node_of]
    recs = np.flatnonzero(node >= 0)
    node = node[recs]
    values = np.empty(len(recs))
    for a in np.flatnonzero(np.bincount(attr)).tolist():
        sel = np.flatnonzero(attr[node] == a)
        values[sel] = state.columns[a][recs[sel]]
    child = (values >= thr[node]).astype(np.int64)
    sel = np.flatnonzero(~cont[node])
    child[sel] = np.where(v2c < 0, default[:, None], v2c).ravel().take(
        node[sel] * v2c.shape[1] + values[sel].astype(np.int64))
    child += off[node]
    state.node_of[recs] = base + child
    local_counts = np.bincount(child * c + state.labels[recs],
                               minlength=n_new * c).reshape(n_new, c)

    # each leaf row becomes its split (its counts are ``totals`` already:
    # the round's refresh synced them); the children follow as new leaves,
    # an empty one (possible only with lossy sketches) closed at once and
    # labelled with the parent majority like the batch path
    parent = np.repeat(np.arange(len(fids)), n_children)
    n = child_counts.sum(axis=1)
    empty = n == 0
    labels = np.where(empty, np.argmax(totals, axis=1)[parent],
                      np.argmax(child_counts, axis=1))
    child_depth = state.depth[fids][parent] + 1
    closed = empty.copy()
    if finalize:
        closed |= terminal_nodes(child_counts, child_depth, config)
    state.kind[fids] = np.where(cont, KIND_CONTINUOUS, KIND_CATEGORICAL)
    state.feature[fids] = attr
    state.threshold[fids] = np.where(cont, thr, np.nan)
    state.leaf_label[fids] = -1
    state.default_child[fids] = default
    state.n_children[fids] = n_children
    state.first_child[fids] = base + off[:-1]
    state.slots[fids[cont], :2] = (0, 1)
    state.slots[fids[cat]] = v2c[cat]
    state.open_[fids] = False
    state.sk_blk[fids] = -1
    state.add_leaves(child_counts, labels, child_depth, ~closed,
                     local_counts)

    # sketches of the open children, one block per transport capacity
    # (the runs the next round sends in): regroup the presort by child
    wanted = np.flatnonzero(~closed)
    if len(wanted) == 0:
        state.adopt([])
        return None
    caps = transport_capacity(n[wanted], state.capacity)
    by_cap = np.argsort(caps, kind="stable")
    wanted, caps = wanted[by_cap], caps[by_cap]
    if order is None or not np.isin(fids, order[0]).all():
        order = (fids, [recs[np.lexsort((col[recs], node))]
                        for col in state.columns])
    key = np.full(len(state.node_of), -1, dtype=np.int64)
    rank = np.full(n_new, -1, dtype=np.int64)
    rank[wanted] = np.arange(len(wanted))
    key[recs] = rank[child]
    regrouped = []
    for a_order in order[1]:
        take, offsets = kernels.stable_regroup(key[a_order], len(wanted))
        regrouped.append(a_order[take])
    blocks = []
    for lo, hi, cap in _cap_runs(caps):
        nodes = np.repeat(np.arange(hi - lo), np.diff(offsets[lo:hi + 1]))
        blocks.append((base + wanted[lo:hi], state.sketch_block(
            nodes, [o[offsets[lo]:offsets[hi]] for o in regrouped],
            hi - lo, cap)))
    state.adopt(blocks)
    return base + wanted, regrouped


def _grow_rounds(comm: Communicator, state: StreamState,
                 config: InductionConfig, *, finalize: bool,
                 grow_threshold: int, reopen_delta: float) -> None:
    """Reduce the class totals, score every qualifying frontier node on
    its scorer, then split the winners everywhere; repeat on the fresh
    children until a round makes no split.  Each round handles the whole
    frontier in array passes.

    ``finalize`` applies the batch termination rules (purity, minimum
    records, depth cap, minimum improvement) and closes failing nodes —
    a finalize run is exactly the batch level loop replayed over the
    sketches.  Mid-stream (``finalize=False``) only nodes whose global
    mass reached ``grow_threshold`` are examined, and a node that fails
    stays open for future chunks.
    """
    growing = finalize or grow_threshold > 0
    # at finalize every leaf's global count is current (the last epoch
    # heartbeat refreshed it); mid-stream the first round follows an
    # ingest, so its counts are stale and the transport stays untrimmed
    tight = finalize
    order = None
    while True:
        # leaves the refresh below reopens are not in this round's set
        fids = np.flatnonzero(state.open_)
        # a sketch travels trimmed to the power of two covering its
        # node's *global* count as of the last refresh — every rank
        # derives the same caps, and deep nodes stop paying full-capacity
        # freight; a count stale since an ingest could force compression
        # the full capacity would not, hence ``tight``
        caps = transport_capacity(state.n_records[fids], state.capacity) \
            if tight else np.full(len(fids), state.capacity)
        tight = True    # refresh below re-syncs every count; no ingest
        with timed_phase(comm, STREAM_SKETCH):
            g_counts = comm.allreduce(state.local_counts, SUM)
        with timed_phase(comm, STREAM_GROW):
            _refresh_frontier(state, g_counts, reopen_delta)
            if not growing:
                # finalize-only growth: the epoch heartbeat reduces just
                # the class totals (leaf refresh + reopen checks); the
                # frontier sketches stay local until end of stream
                return
            totals = g_counts[fids]
            ready = np.ones(len(fids), dtype=bool) if finalize else \
                totals.sum(axis=1) >= max(grow_threshold,
                                          config.min_split_records)
            done = ready & terminal_nodes(totals, state.depth[fids], config)
            _close_leaves(state, fids[done], totals[done])
            scored = np.flatnonzero(ready & ~done)
            if len(scored) == 0:
                return
            fids, totals, caps = fids[scored], totals[scored], caps[scored]
        # each node's sketches go to the one rank that scores it, and
        # only the winners come back — replicating the fold and the
        # scoring pass on every rank would serialize them p times over
        shares = _scorer_shares(caps, comm.size)
        with timed_phase(comm, STREAM_SKETCH):
            folded = _sketches_to_scorers(comm, state, fids, caps, shares)
        with timed_phase(comm, STREAM_GROW):
            split, best, counts = _winners_to_everyone(
                comm, state, shares, folded, totals, config)
            if finalize:
                rejected = np.ones(len(fids), dtype=bool)
                rejected[split] = False
                _close_leaves(state, fids[rejected], totals[rejected])
            if len(split) == 0:
                return
            order = _split_nodes(state, fids[split], best, totals[split],
                                 counts, config, finalize, order)


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------


def _save_cut(comm: Communicator, ckpt: LevelCheckpointer, epoch: int,
              state: StreamState, cursor: int, n_seen: int,
              config: InductionConfig) -> None:
    rank_payload = {
        "columns": [col.copy() for col in state.columns],
        "labels": state.labels.copy(),
        "node_of": state.node_of.copy(),
        "local_counts": state.local_counts.copy(),
        **rank_extras(comm),
    }
    shared_payload = {
        **config.cut_header(_CKPT_ALGO, state.schema, streaming=True),
        "rows": {name: getattr(state, name) for name in ROWS},
        "cursor": int(cursor),
        "n_seen": int(n_seen),
    }
    ckpt.save(comm, epoch, rank_payload, shared_payload,
              meta={"algo": _CKPT_ALGO, "epoch": epoch,
                    "cursor": int(cursor), "n_seen": int(n_seen)})


def _resume_cut(comm: Communicator, source: str, schema: Schema,
                config: InductionConfig, capacity: int):
    """Reload a streaming cut: ``(state, epoch, cursor, n_seen)``.

    Works on the original world size or any other — retained records are
    re-blocked contiguously in old-rank order, and sketches are rebuilt
    deterministically from the exact retained data either way.
    """
    loaded = LoadedCheckpoint.open(source)
    shared = loaded.expect(
        **config.cut_header(_CKPT_ALGO, schema, streaming=True))
    if "rows" not in shared:
        raise CheckpointError(
            f"checkpoint {loaded.manifest_path!r} predates the table rows "
            "of this streaming driver (its tree is a node graph); restart "
            "the stream"
        )

    state = StreamState(schema, capacity)
    for name in ROWS:
        setattr(state, name, shared["rows"][name])

    payloads = loaded.all_rank_payloads()
    if loaded.n_ranks == comm.size:
        mine = payloads[comm.rank]
        state.columns = [np.asarray(col) for col in mine["columns"]]
        state.labels = np.asarray(mine["labels"])
        state.node_of = np.asarray(mine["node_of"])
        state.local_counts = np.asarray(mine["local_counts"])
        restore_rank_extras(comm, mine)
    else:
        all_labels = np.concatenate([p["labels"] for p in payloads])
        all_node_of = np.concatenate([p["node_of"] for p in payloads])
        n_ret = len(all_labels)
        blk = -(-n_ret // comm.size) if n_ret else 0
        lo = min(comm.rank * blk, n_ret)
        hi = min((comm.rank + 1) * blk, n_ret)
        state.columns = [
            np.concatenate([p["columns"][a] for p in payloads])[lo:hi]
            for a in range(state.n_attrs)
        ]
        state.labels = all_labels[lo:hi]
        state.node_of = all_node_of[lo:hi]
        state.local_counts = np.bincount(
            state.node_of * state.n_classes + state.labels,
            minlength=len(state.kind) * state.n_classes,
        ).reshape(len(state.kind), state.n_classes)
    state.rebuild_sketches()
    return state, loaded.level, int(shared["cursor"]), int(shared["n_seen"])


# ----------------------------------------------------------------------
# the SPMD worker
# ----------------------------------------------------------------------


def stream_induce_worker(
    comm: Communicator,
    dataset: Dataset,
    config: InductionConfig | None = None,
    checkpoint: CheckpointConfig | str | None = None,
    max_epochs: int | None = None,
    finalize: bool = True,
    fresh_cursor: bool = False,
) -> DecisionTree:
    """SPMD worker: induce a tree from ``dataset`` consumed as a stream.

    ``max_epochs`` caps how many chunks this call ingests (a capped call
    skips finalize growth — the tree stays a refinable frontier for the
    next resume).  ``finalize=False`` likewise leaves the frontier open
    (the ``partial_fit`` mode).  ``fresh_cursor=True`` treats ``dataset``
    as a brand-new stream segment appended to a resumed tree (cursor
    restarts at 0) instead of a continuation of the checkpointed stream.
    """
    config = config or InductionConfig()
    if dataset.n_records == 0:
        raise ValueError("cannot stream-induce a tree from an empty dataset")
    if len(dataset.schema) == 0:
        raise ValueError("dataset has no attributes")
    schema = dataset.schema
    chunk_records = config.resolved_stream_chunk_records()
    capacity = config.resolved_sketch_size()
    grow_threshold = config.resolved_stream_grow_records()
    reopen_delta = config.resolved_stream_reopen_delta()

    ckpt_cfg = resolve_checkpoint(checkpoint)
    ckpt = LevelCheckpointer(ckpt_cfg) if ckpt_cfg is not None else None
    resume_src = ckpt_cfg.resume_source() if ckpt_cfg is not None else None

    if resume_src is not None:
        state, epoch, cursor, n_seen = _resume_cut(
            comm, resume_src, schema, config, capacity)
        if fresh_cursor:
            cursor = 0
    else:
        state = StreamState(schema, capacity)
        epoch, cursor, n_seen = 0, 0, 0

    source = ChunkSource(dataset, chunk_records)
    epochs_run = 0
    last_saved_epoch = epoch if resume_src is not None else None
    while cursor < source.n_records and (
            max_epochs is None or epochs_run < max_epochs):
        tag_level(comm, epoch)
        block = source.rank_block(cursor, comm.rank, comm.size)
        with timed_phase(comm, STREAM_INGEST):
            state.ingest(block)
        hi = min(cursor + chunk_records, source.n_records)
        n_seen += hi - cursor
        cursor = hi
        _grow_rounds(comm, state, config, finalize=False,
                     grow_threshold=grow_threshold,
                     reopen_delta=reopen_delta)
        epoch += 1
        epochs_run += 1
        comm.perf.mark_level(epoch - 1)
        if ckpt is not None and ckpt.should_save(epoch - 1):
            _save_cut(comm, ckpt, epoch, state, cursor, n_seen, config)
            last_saved_epoch = epoch

    finalized = False
    if finalize and cursor >= source.n_records:
        tag_level(comm, epoch)
        _grow_rounds(comm, state, config, finalize=True,
                     grow_threshold=grow_threshold,
                     reopen_delta=reopen_delta)
        finalized = True

    if ckpt is not None:
        if finalized or last_saved_epoch != epoch:
            # off-cadence tail epoch (or a finalized frontier): cut it
            # anyway so no ingested work is ever lost
            _save_cut(comm, ckpt, epoch, state, cursor, n_seen, config)
        ckpt.finalize(comm)
    return state.table()[0].to_tree()

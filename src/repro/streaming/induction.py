"""Epoch-loop streaming induction (the chunked-ingest workload).

Records arrive in per-epoch chunks instead of being presorted up front
(pdsCART, arXiv:2505.11780; stream-split estimators, arXiv:2403.19867).
Until the stream ends each rank only retains the records it has
ingested; the tree grows once, at finalize, by the batch drivers' loop,
:func:`~repro.core.frontier.grow_levels`, over the same per-node
:class:`~repro.core.frontier.LevelFrontier`, so a stream's fids are
created level by level as a batch fit's are.  Only the split statistics
differ, through :class:`_SketchSource`: a node's are built once, from
the retained records, when it is first scored — a quantile sketch per
continuous attribute (see :mod:`repro.streaming.sketch`) and, per
categorical attribute, the exact class counts per value, batch
ScalParC's count matrix::

    do while (records remain in the stream)
        Stream.ingest   — append this epoch's block to the retained set
        checkpoint cut  — every epoch boundary is a sealed resume point
    end do
    finalize            — grow_levels from the root: the batch rules

Ingest is silent: no collective runs before finalize (a call that stops
mid-stream settles its open root with one class-totals allreduce).  A
resume reloads a cut's retained records, so a killed and resumed stream
grows the uninterrupted one's tree, lossy sketches included.  One pass
sends a node's statistics where ScalParC sends a level's count matrices
— to the rank that scores them::

    Stream.sketch   — class totals of the visited nodes (SUM allreduce)
    Stream.grow     — build the candidates' statistics
    Stream.sketch   — each candidate's local sketches and count rows to
                      its scorer (one alltoallv), folded there (sketches
                      by merge_stacks, count rows summed)
    Stream.grow     — the scorer scores its share (:func:`_score_nodes`);
                      the rows, with each categorical winner's count
                      matrix, reach every rank (one allgatherv); splits
                      re-route the retained records

The class totals and the winners are global, so every rank builds an
identical tree — exactly the batch driver's replication argument — while
a node's merged statistics exist only on its scorer.  A child's class
counts are the next pass's exact totals, whatever the sketches lost.
With lossless continuous sketches the streamed tree is
**bit-identical** to batch ScalParC's on the same record prefix; the
differential suite pins this with ``structurally_equal``.
"""

from __future__ import annotations

import numpy as np

from ..core import kernels
from ..core.config import InductionConfig
from ..core.findsplit import score_boundaries, score_categorical_cubes
from ..core.frontier import CatState, LevelFrontier, LevelSource, \
    accepted_splits, grow_levels
from ..core.phases import STREAM_GROW, STREAM_INGEST, STREAM_SKETCH, \
    timed_phase
from ..core.splits import decode_mask, encode_mask, pack_candidates
from ..core.splitter import LevelDecisions
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
from ..tree.compile import KIND_CONTINUOUS
from ..tree.model import DecisionTree
from .sketch import build_sketch_stack, merge_stacks
from .source import rank_block

__all__ = ["stream_induce_worker"]

#: manifest tag identifying streaming-induction checkpoints
_CKPT_ALGO = "scalparc-streaming"


# ----------------------------------------------------------------------
# sketches to their scorer, winners to everyone
# ----------------------------------------------------------------------


def transport_capacity(n: np.ndarray, full: int) -> np.ndarray:
    """Rows a node with *n* global records needs on the wire: the next
    power of two covering ``n`` (bucketing keeps the number of distinct
    stack shapes — hence capacity runs per pass — logarithmic), clamped
    to ``[8, full]``.  A node holds at most ``n`` distinct values per
    attribute, so trimming the padded sketch to this bound is lossless.
    """
    pows = 8 << np.arange(max(full, 8).bit_length())
    return np.minimum(pows[np.searchsorted(pows, np.minimum(n, full))], full)


def _cap_runs(caps: np.ndarray) -> list[tuple[int, int, int]]:
    """``(lo, hi, cap)`` of every run of equal capacity in sorted
    ``caps``: the groups a share of nodes travels and is folded in."""
    cuts = np.flatnonzero(np.diff(caps, prepend=0, append=0)).tolist()
    return [(lo, hi, int(caps[lo])) for lo, hi in zip(cuts[:-1], cuts[1:])]


def _scorer_shares(pos: np.ndarray, caps: np.ndarray,
                   size: int) -> list[np.ndarray]:
    """Per rank, the scored nodes ``pos`` it scores — the ``j``-th goes
    to rank ``j % size`` — ordered by transport capacity ``caps``, so a
    share travels and is folded as contiguous runs."""
    return [j[np.argsort(caps[j], kind="stable")]
            for j in (pos[r::size] for r in range(size))]


def _sketches_to_scorers(comm: Communicator, source: "_SketchSource",
                         caps: np.ndarray, shares: list) -> list:
    """Send the local statistics of the scored nodes to their scorers and
    fold what arrives.

    One ``alltoallv`` block per destination holds its share's capacity
    runs back to back — each run's continuous sketches, then its
    categorical count rows — so the block a rank sends itself never
    travels.  Returns ``(nodes, stack, rows)`` per run of this rank's
    share: the run's nodes, their global ``(n, n_continuous, cap, 1+c)``
    sketches — every rank's block folded in rank order by
    :func:`merge_stacks`, which merges cell by cell, so these are the
    same rows a fold of the whole pass would give — and their global
    ``(n, row_width)`` count rows, every rank's rows summed.
    """
    def block(share: np.ndarray) -> np.ndarray:
        parts = [np.empty(0)]
        for lo, hi, cap in _cap_runs(caps[share]):
            stack, rows = source.gather(source.fids[share[lo:hi]], cap)
            parts += [stack.ravel(), rows.ravel()]
        return np.concatenate(parts)

    got = comm.alltoallv([block(share) for share in shares])
    mine, folded, off = shares[comm.rank], [], 0
    for lo, hi, cap in _cap_runs(caps[mine]):
        shape = (hi - lo, len(source.continuous), cap, 1 + source.n_classes)
        size, width = int(np.prod(shape)), (hi - lo) * source.row_width
        stack = merge_stacks([b[off:off + size].reshape(shape) for b in got])
        rows = sum(b[off + size:off + size + width] for b in got)
        folded.append((mine[lo:hi], stack,
                       rows.reshape(hi - lo, source.row_width)))
        off += size + width
    return folded


def _row_starts(schema: Schema) -> np.ndarray:
    """Where each attribute's ``(n_values, c)`` count matrix starts in a
    node's flat count row, in values (a continuous attribute takes
    none): the categorical attributes' matrices back to back."""
    widths = [0 if spec.is_continuous else spec.n_values for spec in schema]
    return np.cumsum([0] + widths[:-1], dtype=np.int64)


def _winners_to_everyone(comm: Communicator, shares: list, folded: list,
                         totals: np.ndarray, config: InductionConfig,
                         schema: Schema) -> tuple[np.ndarray, CatState]:
    """Score this rank's share, keep what :func:`accepted_splits` takes,
    and share the winners: returns every node's ``[score, attr, third]``
    row (``inf`` where nothing was accepted) and, as ``best_splits``'
    categorical state, each categorical winner's count matrix.

    One ``allgatherv`` carries each rank's rows in share order, followed
    by the count matrices of its categorical winners — slices of the
    count rows the scorer already holds; the shares are known everywhere
    and a row's attribute says whether a matrix follows and how large,
    so every rank can take the result apart — and derive the child
    layouts itself.
    """
    c = totals.shape[1]
    widths = [0 if spec.is_continuous else spec.n_values for spec in schema]
    starts = c * _row_starts(schema)
    rows, matrices = [np.empty(0)], []
    for j, stack, counts in folded:
        best = _score_nodes(stack, counts, totals[j], schema, config)
        ok = accepted_splits(best, totals[j], np.ones(len(j), dtype=bool),
                             config)
        best[~ok] = np.inf
        rows.append(best.ravel())
        for i in np.flatnonzero(ok).tolist():
            attr = int(best[i, 1])
            if widths[attr]:
                matrices.append(
                    counts[i, starts[attr]:starts[attr] + widths[attr] * c])
    got = comm.allgatherv(np.concatenate(rows + matrices))

    best, off = pack_candidates(len(totals)), 0
    cat_state: CatState = {}
    for share in shares:
        best[share] = got[off:off + 3 * len(share)].reshape(-1, 3)
        off += 3 * len(share)
        for k in share[np.isfinite(best[share, 0])].tolist():
            attr, third = int(best[k, 1]), best[k, 2]
            if width := widths[attr]:
                # a binary-subset winner carries its mask in the third
                # slot (0.0: the multiway split)
                mask = decode_mask(third, width) \
                    if config.categorical_binary_subsets and third != 0.0 \
                    else None
                cat_state.setdefault(attr, {})[k] = (np.rint(
                    got[off:off + width * c]).astype(np.int64).reshape(
                    width, c), mask)
                off += width * c
    return best, cat_state


# ----------------------------------------------------------------------
# split scoring from global statistics (batch-exact semantics)
# ----------------------------------------------------------------------


def _score_nodes(stack: np.ndarray, counts: np.ndarray, totals: np.ndarray,
                 schema: Schema, config: InductionConfig) -> np.ndarray:
    """Best candidate split ``[score, attr, third]`` of every node, scored
    in one pass per attribute from its global statistics: ``stack``
    holds the continuous attributes' sketches (``(k, n_continuous, cap,
    1+c)``, schema order), ``counts`` the categorical attributes' count
    rows (``(k, row_width)``, laid out by :func:`_row_starts`).

    Reproduces the batch FindSplit semantics exactly when the sketches
    are lossless (the count rows always are): continuous candidates are
    the distinct values with a strictly smaller predecessor, the
    threshold is the value itself, the left partition counts everything
    strictly below it; categorical matrices go to
    :func:`score_categorical_cubes` as batch's cubes do.  Attributes fold
    in schema order and replace a node's best only when strictly better,
    which is the canonical (score, attribute, threshold) order.
    """
    out = pack_candidates(len(stack))
    c = totals.shape[1]
    totals = totals.astype(np.float64)
    starts, cont = c * _row_starts(schema), 0
    for attr, spec in enumerate(schema):
        if spec.is_continuous:
            cells = stack[:, cont]
            cont += 1
            # boundary b splits below row b+1's value: valid iff occupied
            node, b = np.nonzero(np.isfinite(cells[:, 1:, 0]))
            left = np.cumsum(cells[:, :, 1:], axis=1)
            score_boundaries(out, attr, node, left[node, b],
                             cells[node, b + 1, 0], totals,
                             config.criterion)
            continue
        lo = starts[attr]
        cubes = counts[:, lo:lo + spec.n_values * c].reshape(
            -1, spec.n_values, c).astype(np.int64)
        scores, masks = score_categorical_cubes(cubes, config)
        third = np.array([encode_mask(mask) for mask in masks])
        better = scores < out[:, 0]
        out[better, 0] = scores[better]
        out[better, 1] = float(attr)
        out[better, 2] = third[better]
    return out


# ----------------------------------------------------------------------
# one rank's stream as the level loop's source
# ----------------------------------------------------------------------


class _SketchSource(LevelSource):
    """One rank's streaming state, read by :func:`grow_levels`.

    The retained records (``columns`` and ``labels``, appended epoch by
    epoch; ``node_of``, each record's fid, from finalize on) and the
    local statistics of the pass's candidates: ``sketches[fid]`` is
    ``(stack, row)``, the continuous attributes' sketches (``(n_continuous,
    cap, 1+c)``, ``cap`` the node's transport capacity) and the
    categorical attributes' class counts per value (a flat ``row_width``
    row, :func:`_row_starts`' layout, float64 like a sketch's counts),
    built from the retained records when the pass scores the node and
    dropped when it ends.  ``presort`` is the record order of the last
    build — per continuous attribute, records sorted by (node, value) —
    which a split only regroups (stable, so value order survives).
    """

    def __init__(self, comm: Communicator, frontier: LevelFrontier,
                 config: InductionConfig) -> None:
        self.comm, self.frontier, self.config = comm, frontier, config
        schema = frontier.schema
        self.capacity = config.sketch_size
        self.n_classes = schema.n_classes
        self.columns = [np.empty(0, dtype=(
            np.float64 if spec.is_continuous else np.int32))
            for spec in schema]
        self.labels = np.empty(0, dtype=np.int64)
        self.node_of = np.empty(0, dtype=np.int64)
        self.continuous = [a for a, spec in enumerate(schema)
                           if spec.is_continuous]
        self.categorical = [a for a, spec in enumerate(schema)
                            if not spec.is_continuous]
        self.value_starts = _row_starts(schema)
        self.n_values = sum(schema[a].n_values for a in self.categorical)
        self.row_width = self.n_values * self.n_classes
        self.sketches: dict = {}
        self.presort: list | None = None
        self.fids = np.empty(0, dtype=np.int64)

    # -- the level loop's side ---------------------------------------

    def class_totals(self, level: int, fids: np.ndarray) -> np.ndarray:
        c = self.n_classes
        node = self._node_index(fids)
        held = node >= 0
        local = np.bincount(node[held] * c + self.labels[held],
                            minlength=len(fids) * c).reshape(len(fids), c)
        with timed_phase(self.comm, STREAM_SKETCH):
            totals = self.comm.allreduce(local, SUM)
        self.fids = fids
        return totals

    def best_splits(self, totals: np.ndarray, candidates: np.ndarray
                    ) -> tuple[np.ndarray, CatState]:
        pos = np.flatnonzero(candidates)
        # a sketch travels trimmed to the power of two covering its
        # node's global count: fresh, so the trim never loses a value
        caps = np.zeros(len(totals), dtype=np.int64)
        caps[pos] = transport_capacity(totals[pos].sum(axis=1), self.capacity)
        with timed_phase(self.comm, STREAM_GROW):
            for fids, block, rows in self._local_sketches(self.fids[pos],
                                                          caps[pos]):
                self.sketches.update(zip(fids.tolist(), zip(block, rows)))
        # each node's sketches go to the one rank that scores it, and
        # only the winners come back — replicating the fold and the
        # scoring pass on every rank would serialize them p times over
        shares = _scorer_shares(pos, caps, self.comm.size)
        with timed_phase(self.comm, STREAM_SKETCH):
            folded = _sketches_to_scorers(self.comm, self, caps, shares)
        with timed_phase(self.comm, STREAM_GROW):
            return _winners_to_everyone(self.comm, shares, folded, totals,
                                        self.config, self.frontier.schema)

    def partition(self, decisions: LevelDecisions) -> None:
        """Move the retained records of the splitting nodes to their
        children, read off the rows the pass just wrote."""
        frontier = self.frontier
        split = self.fids[decisions.splitting]
        node = self._node_index(split)
        recs = np.flatnonzero(node >= 0)
        parent = split[node[recs]]
        feature = frontier.feature[parent]
        values = np.empty(len(recs))
        for a in np.flatnonzero(np.bincount(frontier.feature[split])).tolist():
            sel = np.flatnonzero(feature == a)
            values[sel] = self.columns[a][recs[sel]]
        slot = np.where(frontier.kind[parent] == KIND_CONTINUOUS,
                        values >= frontier.threshold[parent], values)
        child = frontier.slots[parent, slot.astype(np.int64)]
        self.node_of[recs] = frontier.first_child[parent] + np.where(
            child < 0, frontier.default_child[parent], child)

    def end_level(self, level: int, frontier: LevelFrontier,
                  n_active: int) -> None:
        # every node the pass visited split or closed: its statistics
        # are spent
        self.sketches = {}

    # -- the stream's side -------------------------------------------

    def _node_index(self, fids: np.ndarray) -> np.ndarray:
        """Each retained record's position in ``fids``, −1 outside."""
        key = np.full(len(self.frontier.kind), -1, dtype=np.int64)
        key[fids] = np.arange(len(fids))
        return key[self.node_of]

    def gather(self, fids: np.ndarray, cap: int
               ) -> tuple[np.ndarray, np.ndarray]:
        """Local statistics of candidates ``fids`` of capacity ``cap``:
        their continuous sketches as one ``cap``-row block and their
        count rows."""
        stacks, rows = zip(*(self.sketches[fid] for fid in fids.tolist()))
        return np.stack(stacks), np.stack(rows)

    def _local_sketches(self, fids: np.ndarray, caps: np.ndarray) -> list:
        """Local statistics of nodes ``fids`` over the retained records:
        ``(fids, block, rows)`` per run of equal ``caps``, the continuous
        sketches ``(n, n_continuous, cap, 1+c)`` and the count rows ``(n,
        row_width)``.  Each node's records come in value order from the
        last build's, which holds them all, regrouped by node (the root
        pass, the first build, sorts every record by value); the count
        rows of every node are one ``bincount`` over (node, value offset
        + code, class)."""
        by_cap = np.argsort(caps, kind="stable")
        fids, caps = fids[by_cap], caps[by_cap]
        node = self._node_index(fids)
        held = np.flatnonzero(node >= 0)
        held_node = node[held]
        sizes = np.bincount(held_node, minlength=len(fids))
        if self.presort is None:
            self.presort = [np.argsort(self.columns[a], kind="stable")
                            for a in self.continuous]
        self.presort = recs = [
            order[kernels.stable_regroup(node[order], len(fids))[0]]
            for order in self.presort]
        c, base = self.n_classes, held_node * self.n_values
        rows = np.bincount(np.concatenate([np.empty(0, np.int64)] + [
            (base + self.value_starts[a] + self.columns[a][held]) * c
            + self.labels[held] for a in self.categorical]),
            minlength=len(fids) * self.row_width,
        ).reshape(len(fids), self.row_width).astype(np.float64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        runs = []
        for a_lo, a_hi, cap in _cap_runs(caps):
            nodes = np.repeat(np.arange(a_hi - a_lo), sizes[a_lo:a_hi])
            block = np.empty((a_hi - a_lo, len(self.continuous), cap, 1 + c))
            for k, (a, order) in enumerate(zip(self.continuous, recs)):
                part = order[offsets[a_lo]:offsets[a_hi]]
                block[:, k] = build_sketch_stack(
                    nodes, self.columns[a][part], self.labels[part],
                    a_hi - a_lo, c, self.capacity, rows=cap)
            runs.append((fids[a_lo:a_hi], block, rows[a_lo:a_hi]))
        return runs

    def ingest(self, block: Dataset) -> None:
        """Append one epoch block to the retained records."""
        self.columns = [np.concatenate([col, new])
                        for col, new in zip(self.columns, block.columns)]
        self.labels = np.concatenate([self.labels,
                                      block.labels.astype(np.int64)])


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------


def _save_cut(comm: Communicator, ckpt: LevelCheckpointer, epoch: int,
              source: _SketchSource, cursor: int, n_seen: int,
              config: InductionConfig) -> None:
    rank_payload = {
        "columns": [col.copy() for col in source.columns],
        "labels": source.labels.copy(),
        **rank_extras(comm),
    }
    shared_payload = {
        **config.cut_header(_CKPT_ALGO, source.frontier.schema,
                            streaming=True),
        "rows": source.frontier.rows(),
        "cursor": int(cursor),
        "n_seen": int(n_seen),
    }
    ckpt.save(comm, epoch, rank_payload, shared_payload,
              meta={"algo": _CKPT_ALGO, "epoch": epoch,
                    "cursor": int(cursor), "n_seen": int(n_seen)})


def _resume_cut(comm: Communicator, path: str, schema: Schema,
                config: InductionConfig, source: _SketchSource):
    """Reload a streaming cut into a fresh ``source``: ``(epoch, cursor,
    n_seen)``.

    Works on the original world size or any other — retained records are
    re-blocked contiguously in old-rank order; statistics are built from
    them at finalize, as in an uninterrupted stream.  A cut's per-record
    fids and per-fid counts, which older versions wrote, are not read.
    """
    loaded = LoadedCheckpoint.open(path)
    shared = loaded.expect(
        **config.cut_header(_CKPT_ALGO, schema, streaming=True))
    if "rows" not in shared:
        raise CheckpointError(
            f"checkpoint {loaded.manifest_path!r} predates the table rows "
            "of this streaming driver (its tree is a node graph); restart "
            "the stream"
        )
    source.frontier = LevelFrontier.from_rows(schema, shared["rows"])

    payloads = loaded.all_rank_payloads()
    if loaded.n_ranks == comm.size:
        mine = payloads[comm.rank]
        source.columns = [np.asarray(col) for col in mine["columns"]]
        source.labels = np.asarray(mine["labels"])
        restore_rank_extras(comm, mine)
    else:
        all_labels = np.concatenate([p["labels"] for p in payloads])
        n_ret = len(all_labels)
        blk = -(-n_ret // comm.size) if n_ret else 0
        lo = min(comm.rank * blk, n_ret)
        hi = min((comm.rank + 1) * blk, n_ret)
        source.columns = [
            np.concatenate([p["columns"][a] for p in payloads])[lo:hi]
            for a in range(len(schema))
        ]
        source.labels = all_labels[lo:hi]
    return loaded.level, int(shared["cursor"]), int(shared["n_seen"])


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
    skips finalize growth — the tree stays an open root for the next
    resume, settled with the ingested records' class counts).
    ``finalize=False`` likewise leaves the root open (the
    ``partial_fit`` mode).  ``fresh_cursor=True`` treats ``dataset`` as a
    brand-new stream segment appended to a resumed stream (cursor
    restarts at 0) instead of a continuation of the checkpointed stream.
    A finalized cut takes no more records: resuming one with records
    left to ingest raises :class:`CheckpointError`.
    """
    config = config or InductionConfig()
    if dataset.n_records == 0:
        raise ValueError("cannot stream-induce a tree from an empty dataset")
    if len(dataset.schema) == 0:
        raise ValueError("dataset has no attributes")
    schema = dataset.schema

    ckpt_cfg = resolve_checkpoint(checkpoint)
    ckpt = LevelCheckpointer(ckpt_cfg) if ckpt_cfg is not None else None
    resume_src = ckpt_cfg.resume_source() if ckpt_cfg is not None else None

    source = _SketchSource(comm, LevelFrontier(schema), config)
    chunk, n_records = config.stream_chunk_records, dataset.n_records
    epoch, cursor, n_seen = 0, 0, 0
    if resume_src is not None:
        epoch, cursor, n_seen = _resume_cut(comm, resume_src, schema, config,
                                            source)
        if fresh_cursor:
            cursor = 0
        if cursor < n_records and not source.frontier.open_.any():
            raise CheckpointError(
                f"checkpoint {resume_src!r} holds a finalized tree (no open "
                "node): records ingested into it could never change it; "
                "start a new stream"
            )

    epochs_run = 0
    last_saved_epoch = epoch if resume_src is not None else None
    while cursor < n_records and (
            max_epochs is None or epochs_run < max_epochs):
        comm.level = epoch
        block = rank_block(dataset, chunk, cursor, comm.rank, comm.size)
        with timed_phase(comm, STREAM_INGEST):
            source.ingest(block)
        hi = min(cursor + chunk, n_records)
        n_seen += hi - cursor
        cursor = hi
        epoch += 1
        epochs_run += 1
        comm.perf.mark_level(epoch - 1)
        if ckpt is not None and ckpt.should_save(epoch - 1):
            _save_cut(comm, ckpt, epoch, source, cursor, n_seen, config)
            last_saved_epoch = epoch

    # every retained record starts at the root
    source.node_of = np.zeros(len(source.labels), dtype=np.int64)
    tree = None
    if finalize and cursor >= n_records:
        comm.level = epoch
        tree = grow_levels(source.frontier, config, source, epoch)
    else:
        # stopping mid-stream: the open root takes the ingested totals
        root = np.zeros(1, dtype=np.int64)
        source.frontier.settle(root, source.class_totals(epoch, root))

    if ckpt is not None:
        if tree is not None or last_saved_epoch != epoch:
            # off-cadence tail epoch (or a finalized frontier): cut it
            # anyway so no ingested work is ever lost
            _save_cut(comm, ckpt, epoch, source, cursor, n_seen, config)
        ckpt.finalize(comm)
    return tree if tree is not None else source.frontier.table()[0].to_tree()

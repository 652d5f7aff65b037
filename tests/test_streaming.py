"""Streaming (chunked-ingest) induction: sketches, equivalence, resume.

The load-bearing oracle: with lossless sketches (every (node, attribute)
pair's distinct values fit the sketch capacity), a streamed fit is
**bit-identical** to batch ScalParC on the same records — any chunking,
any world size, any backend.  On top of that: epoch cuts resume exactly
(mid-stream kill → identical continuation, lossy sketches and a
different world size included), ``partial_fit`` folds segments into one
tree, and lossy sketches degrade gracefully.
"""

from __future__ import annotations

import pathlib
import pickle
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InductionConfig, ScalParC
from repro.core.criteria import best_categorical_split
from repro.core.findsplit import score_categorical_cubes
from repro.core.frontier import LevelFrontier
from repro.core.kernels import split_scores
from repro.core.phases import STREAM_SKETCH
from repro.core.splits import NO_CANDIDATE, candidate_beats, encode_mask
from repro.datagen import paper_dataset
from repro.datagen.schema import (
    CATEGORICAL,
    CONTINUOUS,
    AttributeSpec,
    Dataset,
    Schema,
)
from repro.runtime import (
    CheckpointConfig,
    SpmdWorkerError,
    TraceCollector,
    payload_nbytes,
    run_spmd,
)
from repro.runtime.checkpoint import (
    CheckpointError,
    LoadedCheckpoint,
    latest_manifest,
)
from repro.streaming import (
    build_sketch,
    empty_sketch,
    merge_sketches,
    merge_stacks,
    sketch_entries,
    sketch_identity_like,
)
from repro.streaming import induction, sketch
from repro.streaming.sketch import build_sketch_stack
from repro.streaming.source import rank_block
from repro.tree.compile import KIND_LEAF

from tests.conftest import assert_trees_equal

_FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

#: lossless streaming config: generous sketch capacity — the settings
#: under which streamed == batch, bit for bit
LOSSLESS = dict(max_depth=6, sketch_size=8192)


def _stream_cfg(**over) -> InductionConfig:
    merged = {**LOSSLESS, "stream_chunk_records": 300, **over}
    return InductionConfig(**merged)


# ----------------------------------------------------------------------
# sketch unit behaviour
# ----------------------------------------------------------------------


def test_sketch_build_is_lossless_within_capacity(rng):
    values = rng.choice(np.linspace(0.0, 1.0, 40), size=500)
    labels = rng.integers(0, 3, size=500)
    sk = build_sketch(values, labels, n_classes=3, capacity=64)
    rows = sketch_entries(sk)
    assert np.array_equal(rows[:, 0], np.unique(values))
    for j, v in enumerate(rows[:, 0]):
        expect = np.bincount(labels[values == v], minlength=3)
        assert np.array_equal(rows[j, 1:], expect)


def test_sketch_merge_matches_pooled_build(rng):
    va, vb = rng.normal(size=300), rng.normal(size=200)
    la, lb = rng.integers(0, 2, 300), rng.integers(0, 2, 200)
    merged = merge_sketches(build_sketch(va, la, 2, 1024),
                            build_sketch(vb, lb, 2, 1024))
    pooled = build_sketch(np.concatenate([va, vb]),
                          np.concatenate([la, lb]), 2, 1024)
    assert np.array_equal(sketch_entries(merged), sketch_entries(pooled))


def test_sketch_compression_preserves_totals_and_order(rng):
    values = rng.normal(size=2000)
    labels = rng.integers(0, 4, size=2000)
    sk = build_sketch(values, labels, n_classes=4, capacity=32)
    rows = sketch_entries(sk)
    assert len(rows) <= 32
    assert np.all(np.diff(rows[:, 0]) > 0)              # sorted, distinct
    assert np.array_equal(rows[:, 1:].sum(axis=0),
                          np.bincount(labels, minlength=4))


def test_empty_sketch_merges_as_identity():
    sk = build_sketch(np.array([1.0, 2.0]), np.array([0, 1]), 2, 16)
    out = merge_sketches(sk, empty_sketch(16, 2))
    assert np.array_equal(sketch_entries(out), sketch_entries(sk))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 31 - 1), n_contribs=st.integers(1, 5),
       capacity=st.sampled_from([4, 8, 16]))
def test_merge_stacks_merges_cell_by_cell(seed, n_contribs, capacity):
    """Folding any subset of the leading-axis cells gives exactly those
    rows of the whole fold — what lets a scorer fold only its own nodes.
    Cells run from empty through lossless to over capacity (compressed
    on build, and again where the union overflows); a contribution may
    be empty throughout."""
    rng = np.random.default_rng(seed)
    n_nodes, n_attrs, c = 6, 2, 2
    stacks = []
    for _ in range(n_contribs):
        stack = sketch_identity_like(
            np.empty((n_nodes, n_attrs, capacity, 1 + c)))
        if rng.random() >= 0.25:
            for k, a in np.ndindex(n_nodes, n_attrs):
                n = int(rng.integers(0, 3 * capacity))
                values = rng.integers(0, int(rng.integers(1, 4 * capacity)),
                                      n) / 2.0
                stack[k, a] = build_sketch(values, rng.integers(0, c, n), c,
                                           capacity)
        stacks.append(stack)
    whole = merge_stacks(stacks)
    cells = rng.permutation(n_nodes)[: int(rng.integers(0, n_nodes + 1))]
    np.testing.assert_array_equal(
        merge_stacks([stack[cells] for stack in stacks]), whole[cells])


def test_chunk_source_partitions_in_record_order():
    """On one rank the blocks are the chunks: the stream in record
    order, the tail chunk short."""
    ds = paper_dataset(1000, "F2", seed=1)
    blocks = [rank_block(ds, 300, off, 0, 1) for off in (0, 300, 600, 900)]
    assert [b.n_records for b in blocks] == [300, 300, 300, 100]
    np.testing.assert_array_equal(
        np.concatenate([b.labels for b in blocks]), ds.labels)


@pytest.mark.parametrize("size", [1, 3, 7])
def test_rank_blocks_tile_the_chunk(size):
    """The per-rank range take must equal the old "materialize the whole
    chunk, then slice" blocks — including the short tail chunk and ranks
    that get nothing."""
    ds = paper_dataset(1000, "F2", seed=1)
    for offset in (0, 300, 900, 1000):
        whole = ds.take(np.arange(offset, min(offset + 300, 1000)))
        for rank in range(size):
            want = whole.block(rank, size)
            got = rank_block(ds, 300, offset, rank, size)
            np.testing.assert_array_equal(got.labels, want.labels)
            for a, b in zip(got.columns, want.columns):
                np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# batched scorer and sketch builder vs their per-node oracles
# ----------------------------------------------------------------------


# The per-node scorer the streaming driver used before its grow rounds
# were batched, moved here verbatim as the oracle of ``_score_nodes``.
def _best_from_sketches(node_sketches: list, totals: np.ndarray,
                        schema: Schema, config: InductionConfig):
    """Best candidate split of one node, scored from its global sketches.

    Reproduces the batch FindSplit semantics exactly when the sketches
    are lossless: continuous candidates are the distinct values with a
    strictly smaller predecessor, the threshold is the value itself, the
    left partition counts everything strictly below it; candidates are
    ordered by the canonical (score, attribute, threshold) key.
    Returns ``(candidate_row, categorical_state)``.
    """
    best = np.array(NO_CANDIDATE, dtype=np.float64)
    best_cat: tuple[np.ndarray, np.ndarray | None] | None = None
    totals_f = totals.astype(np.float64)
    for attr, spec in enumerate(schema):
        rows = sketch_entries(node_sketches[attr])
        if spec.is_continuous:
            if len(rows) < 2:
                continue
            left = np.cumsum(rows[:, 1:], axis=0)[:-1]
            thr = rows[1:, 0]
            scores = split_scores(left, totals_f, config.criterion)
            smin = scores.min()
            tie = np.flatnonzero(scores == smin)
            j = tie[np.argmin(thr[tie])]
            cand = np.array([scores[j], float(attr), thr[j]])
            cat = None
        else:
            matrix = np.zeros((spec.n_values, len(totals)), dtype=np.int64)
            codes = np.rint(rows[:, 0]).astype(np.int64)
            matrix[codes] = np.rint(rows[:, 1:]).astype(np.int64)
            score, mask = best_categorical_split(
                matrix, config.criterion,
                binary_subsets=config.categorical_binary_subsets,
                exhaustive_limit=config.subset_exhaustive_limit,
            )
            third = encode_mask(mask) if mask is not None else 0.0
            cand = np.array([score, float(attr), third])
            cat = (matrix, mask)
        if not np.isfinite(cand[0]):
            continue
        if candidate_beats(cand, best):
            best = cand
            best_cat = cat
    return best, best_cat


#: x2 duplicates x (exact score ties across attributes), values come from
#: a six-point grid (ties across thresholds), g2 duplicates g
_SCORER_ATTRS = (
    AttributeSpec("x", CONTINUOUS), AttributeSpec("x2", CONTINUOUS),
    AttributeSpec("g", CATEGORICAL, 4), AttributeSpec("y", CONTINUOUS),
    AttributeSpec("g2", CATEGORICAL, 4), AttributeSpec("h", CATEGORICAL, 3),
)


def _random_sketch_stack(rng, n_nodes, n_classes, cap):
    """``(stack, counts, totals)``: a ``(n_nodes, n_attrs, cap, 1+c)``
    global sketch stack built per (node, attribute) by ``build_sketch``
    from tiny record sets — empty nodes, single-value attributes and
    single-class nodes included — and the same records' categorical
    count rows (``np.add.at`` per categorical attribute, in schema
    order, each ``(n_values, c)`` matrix flattened)."""
    stack = np.empty((n_nodes, len(_SCORER_ATTRS), cap, 1 + n_classes))
    cats = [a for a, spec in enumerate(_SCORER_ATTRS)
            if not spec.is_continuous]
    counts = []
    totals = np.zeros((n_nodes, n_classes), dtype=np.int64)
    for k in range(n_nodes):
        n = int(rng.integers(0, 13))
        labels = rng.integers(0, int(rng.integers(1, n_classes + 1)), n)
        x = rng.integers(0, int(rng.integers(1, 7)), n).astype(np.float64)
        g = rng.integers(0, 4, n)
        columns = [x, x, g, rng.integers(0, 6, n) / 4.0, g,
                   rng.integers(0, int(rng.integers(1, 4)), n)]
        for a, col in enumerate(columns):
            stack[k, a] = build_sketch(col, labels, n_classes, cap)
        row = []
        for a in cats:
            matrix = np.zeros((_SCORER_ATTRS[a].n_values, n_classes))
            np.add.at(matrix, (columns[a], labels), 1.0)
            row.append(matrix.ravel())
        counts.append(np.concatenate(row))
        totals[k] = np.bincount(labels, minlength=n_classes)
    return stack, np.array(counts), totals


def _continuous_cells(stack, schema):
    """The continuous attributes' cells of an all-attribute stack: what
    the streaming scorer receives beside the count rows."""
    return stack[:, [a for a, spec in enumerate(schema)
                     if spec.is_continuous]]


@pytest.mark.parametrize("mode", ["fast", "reference"])
@pytest.mark.parametrize("subsets", [False, True])
@pytest.mark.parametrize("criterion", ["gini", "entropy"])
@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 2 ** 31 - 1), n_classes=st.integers(2, 3),
       cap=st.sampled_from([8, 16, 64]))
def test_batched_scorer_matches_per_node_oracle(criterion, subsets, mode,
                                                request, seed, n_classes,
                                                cap):
    rng = np.random.default_rng(seed)
    schema = Schema(attributes=_SCORER_ATTRS, n_classes=n_classes)
    config = InductionConfig(criterion=criterion,
                             categorical_binary_subsets=subsets)
    stack, counts, totals = _random_sketch_stack(rng, 9, n_classes, cap)
    rows = rng.permutation(len(stack))[:7]      # a rank's share, any order
    if mode == "reference":
        request.getfixturevalue("kernel_oracles")
    got = induction._score_nodes(_continuous_cells(stack[rows], schema),
                                 counts[rows], totals[rows], schema, config)
    want = np.array([
        _best_from_sketches(list(stack[k]), totals[k], schema, config)[0]
        for k in rows])
    np.testing.assert_array_equal(got, want)


def test_batched_scorer_tie_breaks():
    """Hand-made ties: equal scores across thresholds take the smaller
    threshold, across attributes the smaller index; a one-value and an
    empty node have no candidate."""
    schema = Schema(attributes=_SCORER_ATTRS[:2], n_classes=2)
    config = InductionConfig()
    sym = build_sketch(np.array([0., 1., 2., 3.]), np.array([0, 1, 1, 0]),
                       2, 8)
    one = build_sketch(np.array([5., 5.]), np.array([0, 1]), 2, 8)
    stack = np.stack([np.stack([sym, sym]), np.stack([one, one]),
                      np.stack([empty_sketch(8, 2)] * 2)])
    totals = np.array([[2, 2], [1, 1], [0, 0]])
    got = induction._score_nodes(stack, np.zeros((3, 0)), totals, schema,
                                 config)
    assert got[0, 1] == 0.0 and got[0, 2] == 1.0    # attr 0, threshold 1
    assert np.all(np.isinf(got[1:]))
    for k in range(3):
        np.testing.assert_array_equal(
            got[k], _best_from_sketches(list(stack[k]), totals[k], schema,
                                        config)[0])


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 31 - 1), n_classes=st.integers(2, 3),
       capacity=st.sampled_from([8, 16]), trim=st.booleans())
def test_sketch_stack_builder_matches_build_sketch(seed, n_classes, capacity,
                                                   trim):
    """One pass over (node, value)-sorted records ≡ ``build_sketch`` per
    node — empty nodes and cells that overflow capacity included."""
    rng = np.random.default_rng(seed)
    n_nodes = 6
    n = int(rng.integers(0, 120))
    nodes = rng.integers(0, n_nodes, n)
    nodes[nodes == 2] = 3                       # node 2 stays empty
    values = rng.integers(0, int(rng.integers(2, 40)), n) / 8.0
    labels = rng.integers(0, n_classes, n)
    order = np.lexsort((values, nodes))
    rows = capacity // 2 if trim else None
    got = build_sketch_stack(nodes[order], values[order], labels[order],
                             n_nodes, n_classes, capacity, rows=rows)
    for k in range(n_nodes):
        want = build_sketch(values[nodes == k], labels[nodes == k],
                            n_classes, capacity)[:rows]
        np.testing.assert_array_equal(got[k], want)


def _exact_cubes(source, fids):
    """Per fid, one rank's ``np.add.at`` count matrix of each categorical
    attribute over the records it retains — the oracle of a count row."""
    schema, c = source.frontier.schema, source.n_classes
    out = {}
    for fid in fids.tolist():
        mine = source.node_of == fid
        out[fid] = []
        for a, spec in enumerate(schema):
            if not spec.is_continuous:
                matrix = np.zeros((spec.n_values, c), dtype=np.int64)
                np.add.at(matrix, (source.columns[a][mine],
                                   source.labels[mine]), 1)
                out[fid].append(matrix)
    return out


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 31 - 1), nprocs=st.integers(1, 3),
       chunk=st.integers(40, 400), n_classes=st.integers(2, 3),
       n_values=st.lists(st.integers(2, 40), min_size=1, max_size=3),
       subsets=st.booleans())
def test_folded_count_rows_are_exact_counts(seed, nprocs, chunk, n_classes,
                                            n_values, subsets):
    """On every scorer, every pass's folded count rows equal the
    ``np.add.at`` counts of the node's records summed over the ranks —
    any world size, chunking, class count, and category counts beyond
    the 16-slot sketch size — and the scorer's categorical choice is
    ``score_categorical_cubes`` on those exact cubes: a categorical
    winner is the first attribute of least score, with its mask, and a
    continuous winner (or none) scores no worse than every one."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 500))
    schema = Schema(attributes=(AttributeSpec("x", CONTINUOUS), *(
        AttributeSpec(f"g{i}", CATEGORICAL, v)
        for i, v in enumerate(n_values))), n_classes=n_classes)
    columns = [rng.integers(0, 50, n) / 4.0] + [
        rng.integers(0, v, n).astype(np.int32) for v in n_values]
    labels = (columns[1] + rng.integers(0, 2, n)) % n_classes
    ds = Dataset(schema=schema, columns=columns, labels=labels, name="cats")
    config = _stream_cfg(max_depth=4, sketch_size=16,
                         stream_chunk_records=chunk,
                         categorical_binary_subsets=subsets)
    seen: dict[int, list] = {}
    real = induction._sketches_to_scorers

    def spy(comm, source, caps, shares):
        folded = real(comm, source, caps, shares)
        local = _exact_cubes(source, source.fids[np.concatenate(shares)])
        seen.setdefault(comm.rank, []).append((local, [
            (source.fids[j], stack, counts) for j, stack, counts in folded]))
        return folded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(induction, "_sketches_to_scorers", spy)
        run_spmd(nprocs, induction.stream_induce_worker, args=(ds, config),
                 backend="thread")
    assert sorted(seen) == list(range(nprocs))
    checked = 0
    for passes in zip(*(seen[r] for r in range(nprocs))):
        exact = {fid: [sum(mats) for mats in zip(*(
            local[fid] for local, _ in passes))] for fid in passes[0][0]}
        for _, folded in passes:
            for fids, stack, counts in folded:
                want = [exact[fid] for fid in fids.tolist()]
                np.testing.assert_array_equal(counts, np.array(
                    [np.concatenate([m.ravel() for m in cubes])
                     for cubes in want]).reshape(counts.shape))
                totals = np.array([cubes[0].sum(axis=0) for cubes in want])
                got = induction._score_nodes(stack, counts, totals, schema,
                                             config)
                scores = []
                for k in range(len(n_values)):
                    score, masks = score_categorical_cubes(
                        np.array([cubes[k] for cubes in want]), config)
                    scores.append((score, masks))
                for i, row in enumerate(got):
                    cat = np.array([score[i] for score, _ in scores])
                    if np.isfinite(row[0]) and row[1] >= 1:  # categorical
                        k = int(row[1]) - 1
                        assert k == int(np.argmin(cat))
                        assert row[0] == cat[k]
                        assert row[2] == encode_mask(scores[k][1][i])
                    else:
                        assert (cat >= row[0]).all()
                    checked += 1
    assert checked


@pytest.mark.parametrize("sketch_size", [16, 4096])
def test_grow_rounds_child_sketches_match_build_sketch(sketch_size,
                                                       monkeypatch):
    """Every local sketch block a rank builds — from a fresh lexsort at
    the root, from the presort a split regrouped below it — equals
    ``build_sketch`` of each node's records (trimmed to the block's rows)
    for every continuous attribute, over every pass of the finalize, in
    the lossless and in the overflowing regime; the count rows built
    beside them are each node's exact class counts per categorical value
    (``car`` has 20 values: more than 16 slots)."""
    ds = paper_dataset(1600, "F5", seed=7)
    cfg = _stream_cfg(sketch_size=sketch_size, stream_chunk_records=400)
    built, regrouped = [], []
    build = induction._SketchSource._local_sketches
    regroup = induction.kernels.stable_regroup

    def checked(self, fids, caps):
        runs = build(self, fids, caps)
        schema = self.frontier.schema
        continuous = [a for a, spec in enumerate(schema)
                      if spec.is_continuous]
        for run, block, counts in runs:
            for fid, sketches, row in zip(run.tolist(), block, counts):
                mine = np.flatnonzero(self.node_of == fid)
                for k, a in enumerate(continuous):
                    np.testing.assert_array_equal(sketches[k], build_sketch(
                        self.columns[a][mine], self.labels[mine],
                        self.n_classes, self.capacity)[:block.shape[2]])
                want = []
                for a, spec in enumerate(schema):
                    if not spec.is_continuous:
                        matrix = np.zeros((spec.n_values, self.n_classes))
                        np.add.at(matrix, (self.columns[a][mine],
                                           self.labels[mine]), 1.0)
                        want.append(matrix.ravel())
                np.testing.assert_array_equal(row, np.concatenate(want))
                built.append(fid)
        return runs

    monkeypatch.setattr(induction._SketchSource, "_local_sketches", checked)
    monkeypatch.setattr(induction.kernels, "stable_regroup",
                        lambda *args: regrouped.append(1) or regroup(*args))
    run_spmd(2, induction.stream_induce_worker, args=(ds, cfg),
             backend="thread")
    assert len(built) > 20 and regrouped


# ----------------------------------------------------------------------
# differential: streaming vs batch on the same records
# ----------------------------------------------------------------------


@pytest.mark.parametrize("function", ["F2", "F5"])
def test_lossless_stream_matches_batch_exactly(function):
    ds = paper_dataset(2000, function, seed=7)
    batch = ScalParC(4, InductionConfig(max_depth=6), machine=None).fit(ds)
    stream = ScalParC(4, _stream_cfg(), machine=None).fit_stream(ds)
    assert_trees_equal(batch.tree, stream.tree,
                       f"streaming vs batch on {function}")


@pytest.mark.parametrize("chunk", [150, 512, 5000])
def test_tree_is_invariant_to_chunking(chunk):
    """Growth at the end of the stream makes the epoch boundaries
    invisible: any chunk size (including one bigger than the stream)
    gives one tree."""
    ds = paper_dataset(1500, "F5", seed=3)
    ref = ScalParC(3, InductionConfig(max_depth=6), machine=None).fit(ds)
    got = ScalParC(3, _stream_cfg(stream_chunk_records=chunk),
                   machine=None).fit_stream(ds)
    assert_trees_equal(ref.tree, got.tree, f"chunk={chunk}")


def test_stream_prefix_matches_batch_on_prefix():
    """Streaming a prefix of the record stream equals batch-fitting that
    prefix — the ISSUE's prefix-differential pin."""
    ds = paper_dataset(2400, "F5", seed=11)
    prefix = ds.take(np.arange(1200))
    batch = ScalParC(4, InductionConfig(max_depth=6),
                     machine=None).fit(prefix)
    stream = ScalParC(4, _stream_cfg(), machine=None).fit_stream(prefix)
    assert_trees_equal(batch.tree, stream.tree, "on prefix")


def test_stream_is_processor_count_independent():
    ds = paper_dataset(1500, "F2", seed=5)
    one = ScalParC(1, _stream_cfg(), machine=None).fit_stream(ds)
    four = ScalParC(4, _stream_cfg(), machine=None).fit_stream(ds)
    assert_trees_equal(one.tree, four.tree, "p=1 vs p=4")


def test_traced_stream_passes_conformance():
    """Every rank must issue the identical Stream.* collective sequence
    (trace=True auto-checks and raises on divergence)."""
    ds = paper_dataset(1200, "F5", seed=9)
    result = ScalParC(4, _stream_cfg(), machine=None).fit_stream(
        ds, trace=True)
    assert result.tree.n_leaves > 1


def test_priced_stream_attributes_stream_phases():
    ds = paper_dataset(1200, "F2", seed=2)
    result = ScalParC(4, _stream_cfg()).fit_stream(ds)
    assert result.stats is not None
    assert result.stats.parallel_time > 0


# ----------------------------------------------------------------------
# epoch cuts: kill, resume, elasticity, partial_fit
# ----------------------------------------------------------------------


def test_midstream_kill_and_resume_matches_one_shot(tmp_path):
    """A resume builds every node's statistics from the cut's retained
    records, as the uninterrupted stream does at its end — so the trees
    are equal even where the sketches are lossy (the continuous
    attributes' values overflow 16 slots)."""
    ds = paper_dataset(2000, "F5", seed=7)
    cfg = _stream_cfg(sketch_size=16)
    one_shot = ScalParC(4, cfg, machine=None).fit_stream(ds)

    clf = ScalParC(4, cfg, machine=None)
    killed = clf.fit_stream(ds, checkpoint=CheckpointConfig(
        dir=str(tmp_path)), max_epochs=3)
    # the killed fit stopped at a sealed cut: an open root, not final
    assert killed.tree.n_leaves == 1 < one_shot.tree.n_leaves
    resumed = clf.fit_stream(ds, checkpoint=CheckpointConfig(
        dir=str(tmp_path), resume=True))
    assert_trees_equal(one_shot.tree, resumed.tree,
                       "kill at epoch 3 + resume")


def test_resume_on_different_world_size(tmp_path):
    """Retained records re-block contiguously on p → p′ resume; the
    continuation is still bit-identical."""
    ds = paper_dataset(2000, "F5", seed=7)
    cfg = _stream_cfg()
    one_shot = ScalParC(4, cfg, machine=None).fit_stream(ds)
    ScalParC(4, cfg, machine=None).fit_stream(
        ds, checkpoint=CheckpointConfig(dir=str(tmp_path)), max_epochs=3)
    resumed = ScalParC(3, cfg, machine=None).fit_stream(
        ds, checkpoint=CheckpointConfig(dir=str(tmp_path), resume=True))
    assert_trees_equal(one_shot.tree, resumed.tree,
                       "resume on 3 ranks of a 4-rank cut")


def test_partial_fit_segments_match_one_shot(tmp_path):
    ds = paper_dataset(2000, "F5", seed=7)
    cfg = _stream_cfg()
    one_shot = ScalParC(4, cfg, machine=None).fit_stream(ds)

    clf = ScalParC(4, cfg, machine=None)
    clf.partial_fit(ds.take(np.arange(0, 800)), checkpoint=str(tmp_path))
    clf.partial_fit(ds.take(np.arange(800, 2000)), checkpoint=str(tmp_path))
    # finalize the accumulated stream: resume with nothing left to ingest
    final = clf.fit_stream(ds.take(np.arange(800, 2000)),
                           checkpoint=CheckpointConfig(dir=str(tmp_path),
                                                       resume=True))
    assert_trees_equal(one_shot.tree, final.tree,
                       "two partial_fit segments + finalize")


@pytest.mark.parametrize("backend", ["thread", "process", "tcp"])
@pytest.mark.parametrize("nprocs", [1, 2, 3])
def test_unfinished_stream_returns_its_settled_root(nprocs, backend,
                                                     tmp_path):
    """A call that stops before the stream ends — a capped
    ``fit_stream`` or a ``partial_fit`` — returns one open leaf holding
    the class counts, record count and majority label of the prefix it
    ingested."""
    ds = paper_dataset(3000, "F2", seed=1)
    clf = ScalParC(nprocs, _stream_cfg(stream_chunk_records=500,
                                       sketch_size=32),
                   machine=None, backend=backend)
    capped = clf.fit_stream(ds, max_epochs=2).tree
    segment = ds.take(np.arange(700))
    partial = clf.partial_fit(segment, checkpoint=str(tmp_path)).tree
    for tree, labels in ((capped, ds.labels[:1000]),
                         (partial, segment.labels)):
        table = tree.compiled()
        counts = np.bincount(labels, minlength=ds.schema.n_classes)
        assert table.n_nodes == 1 and table.kind[0] == KIND_LEAF
        np.testing.assert_array_equal(table.class_counts[0], counts)
        assert table.n_records[0] == len(labels)
        assert table.leaf_label[0] == np.argmax(counts)


def test_ingest_runs_no_collective():
    """Until the stream ends a rank only appends what it ingests: a
    finalizing fit traces no collective at an epoch's level, and a
    capped one only the allreduce that settles its open root."""
    ds = paper_dataset(3000, "F2", seed=1)
    cfg = _stream_cfg(stream_chunk_records=500, sketch_size=32)
    for max_epochs, epochs, early in ((None, 6, []),
                                      (2, 2, ["allreduce(op=sum)"])):
        collector = TraceCollector()
        ScalParC(2, cfg, machine=None).fit_stream(
            ds, trace=collector, max_epochs=max_epochs)
        for rank in range(2):
            events = collector.events_of(rank)
            assert [ev.op for ev in events if ev.level < epochs] == early
            assert max_epochs or len(events) > len(early)


#: structure digest of the tree grown from the committed table-row cut,
#: per world size, by the version that wrote it
_TABLE_ROW_CUT_TREES = {2: "4e2a49e2eaf4b75671a8324b04ae0e71",
                        3: "e16f52179cedbb55bb7c7058e27230be"}


@pytest.mark.parametrize("nprocs", sorted(_TABLE_ROW_CUT_TREES))
def test_committed_table_row_cut_resumes(nprocs, tmp_path):
    """``tests/fixtures/stream_cut_table_rows`` is an epoch cut written by
    the version that routed ingest through the tree, with each record's
    fid and per-fid class counts in its rank payloads (F5, 3 000
    records, seed 7, chunk 400, sketch 16 — lossy —, depth 6, p = 2,
    thread backend, cut at epoch 3).  Resumed, it grows the tree that
    version grew from it: at p = 2 the uninterrupted stream's, and at
    p = 3, re-blocked, the same tree as before."""
    ds = paper_dataset(3000, "F5", seed=7)
    cfg = _stream_cfg(stream_chunk_records=400, sketch_size=16)
    shutil.copytree(_FIXTURES / "stream_cut_table_rows", tmp_path / "cut")
    resumed = ScalParC(nprocs, cfg, machine=None).fit_stream(
        ds, checkpoint=CheckpointConfig(dir=str(tmp_path / "cut"),
                                        resume=True)).tree
    assert resumed.compiled().structure_digest \
        == _TABLE_ROW_CUT_TREES[nprocs]
    if nprocs == 2:
        one_shot = ScalParC(2, cfg, machine=None).fit_stream(ds).tree
        assert_trees_equal(one_shot, resumed, "committed cut, resumed")


def test_partial_fit_onto_a_finalized_cut_is_refused(tmp_path):
    """A finalized stream's last cut holds no open node, so records
    folded into it could never change its tree: ``partial_fit`` there is
    refused, typed, naming the cut, on every rank — and the cut still
    finalizes to its tree when nothing is left to ingest."""
    ds = paper_dataset(900, "F2", seed=1)
    clf = ScalParC(2, _stream_cfg(), machine=None, backend="thread")
    done = clf.fit_stream(ds, checkpoint=CheckpointConfig(dir=str(tmp_path)))
    manifest = latest_manifest(str(tmp_path))
    with pytest.raises(SpmdWorkerError) as err:
        clf.partial_fit(ds.take(np.arange(300)), checkpoint=str(tmp_path))
    assert len(err.value.failures) == 2
    for exc in err.value.failures.values():
        assert isinstance(exc, CheckpointError)
        assert manifest in str(exc) and "finalized" in str(exc)
    again = clf.fit_stream(ds, checkpoint=CheckpointConfig(
        dir=str(tmp_path), resume=True))
    assert_trees_equal(done.tree, again.tree, "finalized cut, nothing new")


def test_partial_fit_requires_checkpoint():
    ds = paper_dataset(300, "F2", seed=1)
    with pytest.raises(ValueError, match="checkpoint"):
        ScalParC(2, _stream_cfg(), machine=None).partial_fit(ds)


def test_resume_rejects_batch_checkpoint(tmp_path):
    """A streaming resume must refuse a cut written by the batch driver."""
    ds = paper_dataset(600, "F2", seed=1)
    ScalParC(2, InductionConfig(max_depth=6), machine=None).fit(
        ds, checkpoint=CheckpointConfig(dir=str(tmp_path)))
    with pytest.raises(Exception) as err:
        ScalParC(2, _stream_cfg(), machine=None).fit_stream(
            ds, checkpoint=CheckpointConfig(dir=str(tmp_path), resume=True))
    assert "streaming" in str(err.getrepr(style="short")).lower()


def test_resume_rejects_different_stream_settings(tmp_path):
    ds = paper_dataset(900, "F2", seed=1)
    ScalParC(2, _stream_cfg(stream_chunk_records=300), machine=None)\
        .fit_stream(ds, checkpoint=CheckpointConfig(dir=str(tmp_path)),
                    max_epochs=1)
    with pytest.raises(Exception) as err:
        ScalParC(2, _stream_cfg(stream_chunk_records=200), machine=None)\
            .fit_stream(ds, checkpoint=CheckpointConfig(dir=str(tmp_path),
                                                        resume=True))
    assert "settings" in str(err.getrepr(style="short")).lower()


def test_resume_refuses_the_committed_node_graph_cut(tmp_path):
    """``tests/fixtures/stream_cut_node_graph`` is an epoch cut written by
    the driver that kept its tree as node objects (``"tree": (root,
    entries)``; F2, 600 records, p = 2, one epoch, thread backend).  The
    table-row driver refuses it, typed, on every rank."""
    shutil.copytree(_FIXTURES / "stream_cut_node_graph", tmp_path / "cut")
    with pytest.raises(SpmdWorkerError) as err:
        ScalParC(2, _stream_cfg(), machine=None, backend="thread").fit_stream(
            paper_dataset(600, "F2", seed=1), checkpoint=CheckpointConfig(
                dir=str(tmp_path / "cut"), resume=True))
    assert len(err.value.failures) == 2
    for exc in err.value.failures.values():
        assert isinstance(exc, CheckpointError) and "predates" in str(exc)


# ----------------------------------------------------------------------
# lossy sketches: graceful degradation
# ----------------------------------------------------------------------


def test_lossy_sketch_still_classifies_well():
    ds = paper_dataset(2000, "F5", seed=7)
    cfg = _stream_cfg(sketch_size=16)
    tree = ScalParC(4, cfg, machine=None).fit_stream(ds).tree
    accuracy = float((tree.predict(ds) == ds.labels).mean())
    assert accuracy > 0.80


#: scenario → (dataset, config, structure digest per world size).  The
#: lossy digests were recorded once leaves took their counts from exact
#: class totals instead of their parent's sketch (see the leaf-count
#: test below), again at p = 1 and 2 once categorical statistics became
#: exact count rows (``car`` has 20 values, more than the 16 slots a
#: sketch held), and again at every p once the root's statistics were
#: built at the end of the stream from the retained records instead of
#: merged chunk by chunk (the root is the first node that differs).
#: Lossy sketches compress per rank, so the tree legitimately depends on
#: p.
_MODES = {
    "lossy": (
        lambda: paper_dataset(2000, "F5", seed=7),
        dict(sketch_size=16),
        {1: "f8a6365918cad47c47c940b7b419afc7",
         2: "ef19f548f63123b7ac151a38b20f3739",
         3: "f40637c40a9bd71bd1a40c1927ed4866"}),
}


@pytest.mark.parametrize("backend",
                         ["thread", "process", "tcp"])
@pytest.mark.parametrize("nprocs", [1, 2, 3])
@pytest.mark.parametrize("mode", sorted(_MODES))
def test_eager_lossy_and_drift_trees_are_pinned(mode, nprocs, backend):
    make, over, digests = _MODES[mode]
    tree = ScalParC(nprocs, _stream_cfg(**over), machine=None,
                    backend=backend).fit_stream(make()).tree
    assert tree.compiled().structure_digest == digests[nprocs], \
        (mode, nprocs, backend)


@pytest.mark.parametrize("nprocs", [1, 2, 3])
@pytest.mark.parametrize("mode", sorted(_MODES))
def test_leaf_counts_match_the_records_routed_to_them(mode, nprocs):
    """Route the training set through the streamed tree's table: every
    leaf's class counts are those of the records that reach it, lossy
    sketches included — a child's counts are the next pass's exact class
    totals, never an estimate from its parent's sketch."""
    make, over, _ = _MODES[mode]
    ds, cfg = make(), _stream_cfg(**over)
    table = ScalParC(nprocs, cfg, machine=None).fit_stream(ds).tree.compiled()
    c = ds.schema.n_classes
    routed = np.bincount(
        table.apply(np.column_stack(ds.columns)) * c + ds.labels,
        minlength=table.n_nodes * c).reshape(-1, c)
    stale = (table.kind == KIND_LEAF) & (
        routed != table.class_counts).any(axis=1)
    assert not stale.any(), np.flatnonzero(stale)


@pytest.mark.parametrize("nprocs", [1, 2, 3])
@pytest.mark.parametrize("mode", sorted(_MODES))
def test_sketches_travel_at_a_capacity_covering_their_node(mode, nprocs,
                                                           monkeypatch):
    """A scored node's sketches cross the transport with at least
    min(its global record count, sketch_size) rows, so the power-of-two
    trim never drops a value: the capacities come from the pass's exact
    class totals, never from a count estimated off a parent's sketch."""
    calls: dict[int, list] = {}
    real = induction._sketches_to_scorers

    def spy(comm, source, caps, shares):
        pos = np.concatenate(shares)
        local = np.bincount(source.node_of,
                            minlength=len(source.frontier.kind))
        calls.setdefault(comm.rank, []).append(
            (caps[pos], local[source.fids[pos]]))
        return real(comm, source, caps, shares)

    monkeypatch.setattr(induction, "_sketches_to_scorers", spy)
    make, over, _ = _MODES[mode]
    cfg = _stream_cfg(**over)
    ScalParC(nprocs, cfg, machine=None, backend="thread").fit_stream(make())
    assert sorted(calls) == list(range(nprocs))
    for per_rank in zip(*calls.values()):      # one scoring pass
        n = sum(local for _, local in per_rank)
        assert (per_rank[0][0] >= np.minimum(
            n, cfg.sketch_size)).all()


def _streamed_on_rank(comm, ds, cfg, ckpt_dir):
    """One checkpointed streamed fit's tree, pickled."""
    return pickle.dumps(induction.stream_induce_worker(
        comm, ds, cfg, checkpoint=CheckpointConfig(dir=ckpt_dir)))


def test_streamed_trees_and_cuts_hold_no_node_objects(tmp_path):
    """The streaming tree is table rows end to end: neither a rank's
    pickled tree nor the finalized cut's shared payload (read as
    written) names a node class."""
    make, over, digests = _MODES["lossy"]
    results = run_spmd(2, _streamed_on_rank, backend="process", args=(
        make(), _stream_cfg(**over), str(tmp_path)))
    cut = LoadedCheckpoint.open(str(tmp_path))
    blobs = [(pathlib.Path(cut.directory) / "shared.ckpt").read_bytes(),
             *results]
    for blob in blobs:
        for name in (b"Leaf", b"ContinuousSplit", b"CategoricalSplit"):
            assert name not in blob
    tree = pickle.loads(results[0])
    assert tree.compiled().structure_digest == digests[2]


def _traced_stream_digests(backend: str) -> list:
    """Per rank, ``(op, phase, level, payload digest, result digest)`` of
    every Stream.* collective of one streamed fit; the trace must pass
    the conformance checker."""
    ds = paper_dataset(1500, "F5", seed=9)
    cfg = _stream_cfg(sketch_size=64)
    collector = TraceCollector()
    ScalParC(2, cfg, machine=None, backend=backend).fit_stream(
        ds, trace=collector)
    collector.check().raise_if_failed()
    return [[(ev.op, ev.phase, ev.level, ev.payload_digest,
              ev.result_digest) for ev in collector.events_of(rank)]
            for rank in range(2)]


def test_traced_stream_payloads_match_across_backends():
    """Same collectives, same bytes: per rank, every engine sees the
    thread engine's payload and result digests for every Stream.*
    collective."""
    reference = _traced_stream_digests("thread")
    assert reference[0], "no collectives traced"
    assert _traced_stream_digests("process") == reference


@pytest.mark.tcp
def test_traced_stream_payloads_match_on_tcp():
    assert _traced_stream_digests("tcp") == _traced_stream_digests("thread")


#: calls the spies of the traffic test recorded in *this* process
_SPIED: dict[str, list] = {"merge": [], "fold": [], "score": [],
                           "split": []}


def _spied_stream_worker(comm, ds, cfg):
    """One streamed fit on a forked rank; returns what its spies saw."""
    for calls in _SPIED.values():
        calls.clear()
    induction.stream_induce_worker(comm, ds, cfg)
    return {key: list(calls) for key, calls in _SPIED.items()}


def _spy(monkeypatch, module, name, key, record):
    real = getattr(module, name)

    def spy(*args):
        _SPIED[key].append(record(*args))
        return real(*args)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("nprocs", [2, 3])
@pytest.mark.parametrize("backend", ["process", "tcp"])
def test_sketches_cross_the_transport_once_to_their_scorer(backend, nprocs,
                                                           monkeypatch):
    """A finalize round moves sketches and count rows in exactly one
    all-to-all, after the class-count allreduce: a rank receives one
    block per rank for the nodes it scores and nothing else, folds them
    itself, and the
    engine parent never merges a sketch (no ``sketch_merge`` reduction
    is left for it to run).  The winners' allgatherv carries no sketch
    either: a row per scored node, then a count matrix per categorical
    winner (its child layout), nothing for a continuous one."""
    for calls in _SPIED.values():
        calls.clear()
    _spy(monkeypatch, sketch, "merge_stacks", "merge", len)
    fold = induction._sketches_to_scorers

    def folded_shapes(*args):
        folded = fold(*args)
        _SPIED["fold"].extend((stack.shape, counts.shape)
                              for _, stack, counts in folded)
        return folded

    monkeypatch.setattr(induction, "_sketches_to_scorers", folded_shapes)
    _spy(monkeypatch, induction, "_score_nodes", "score",
         lambda stack, counts, *rest: (stack.shape, counts.shape))
    _spy(monkeypatch, LevelFrontier, "grow", "split",
         lambda frontier, fids, totals, best, split_ok, *rest:
         best[split_ok, 1].astype(int).tolist())
    ds = paper_dataset(1500, "F5", seed=9)
    collector = TraceCollector()
    spied = run_spmd(nprocs, _spied_stream_worker,
                     args=(ds, _stream_cfg(sketch_size=64)),
                     backend=backend, trace=collector)
    collector.check().raise_if_failed()
    assert not any(_SPIED.values()), "the engine parent merged sketches"

    final = max(ev.level for ev in collector.events_of(0))
    scored = []
    for rank, seen in enumerate(spied):
        events = collector.events_of(rank)
        assert not [ev.op for ev in events if "sketch_merge" in ev.op]
        ops = [ev.op for ev in events
               if ev.phase == STREAM_SKETCH and ev.level == final]
        # one count allreduce + one alltoallv per round; the last round
        # may stop after the allreduce (nothing left to score)
        assert len(ops) >= 2
        assert ops == (["allreduce(op=sum)", "alltoallv"] * len(ops))[
            :len(ops)], ops
        received = sum(ev.result_nbytes - payload_nbytes([])
                       for ev in events if ev.kind == "alltoallv")
        # one block of each folded run's shapes from every rank: its
        # continuous stack, then its count rows (Σ n_values × c per node)
        folds = seen["fold"]
        width = sum(spec.n_values for spec in ds.schema
                    if not spec.is_continuous) * ds.schema.n_classes
        assert all(rows == (stack[0], width) for stack, rows in folds)
        assert folds and received == sum(
            nprocs * 8 * (int(np.prod(stack)) + int(np.prod(rows)))
            for stack, rows in folds)
        assert sorted(folds) == sorted(seen["score"])
        scored.append(sum(stack[0] for stack, _ in seen["score"]))
        # every rank splits the same winners
        assert seen["split"] == spied[0]["split"]
    # what a winner's split needs beyond its row: nothing (continuous),
    # its n_values × c count matrix (categorical)
    c = ds.schema.n_classes
    need = [0 if spec.is_continuous else spec.n_values * c
            for spec in ds.schema]
    winners = [attr for attrs in spied[0]["split"] for attr in attrs]
    for rank in range(nprocs):
        received = sum(ev.result_nbytes for ev in collector.events_of(rank)
                       if ev.kind == "allgatherv")
        assert received == 8 * (3 * sum(scored)
                                + sum(need[a] for a in winners))
    # round-robin: shares differ by at most one node per round
    rounds = sum(ev.kind == "alltoallv" for ev in collector.events_of(0))
    assert max(scored) - min(scored) <= rounds


# ----------------------------------------------------------------------
# config plumbing and env parity
# ----------------------------------------------------------------------


def test_stream_knob_env_parity(monkeypatch):
    """The streaming knobs are config fields (and CLI flags) only: the
    ``REPRO_STREAM_*`` variables older versions read change nothing, and
    ``None`` means the field's default."""
    monkeypatch.setenv("REPRO_STREAM_CHUNK_RECORDS", "777")
    monkeypatch.setenv("REPRO_STREAM_SKETCH_SIZE", "99")
    cfg = InductionConfig(stream_chunk_records=None, sketch_size=None)
    assert cfg == InductionConfig()
    assert cfg.resolved_stream_chunk_records() == 4096
    assert cfg.resolved_sketch_size() == 256
    cfg = InductionConfig(stream_chunk_records=123, sketch_size=64)
    assert cfg.resolved_stream_chunk_records() == 123
    assert cfg.resolved_sketch_size() == 64


@pytest.mark.parametrize("bad", [
    {"stream_chunk_records": 0},
    {"sketch_size": 4},
])
def test_stream_knob_validation(bad):
    with pytest.raises(ValueError):
        InductionConfig(**bad)


def test_streaming_epoch_moves_fewer_bytes_than_a_refit():
    """The operator's alternative to streaming is refitting batch ScalParC
    on the growing prefix after every chunk: a streamed epoch must move
    fewer collective bytes than that, at no more than 2 points of
    accuracy (bytes are exact, so this is deterministic)."""
    n, p, epochs = 8_000, 2, 8
    chunk = n // epochs
    data = paper_dataset(n, "F2", seed=1)
    test = paper_dataset(2_000, "F2", seed=2)

    def traced_bytes(fit):
        collector = TraceCollector()
        tree = fit(collector).tree
        return tree, sum(ev.payload_nbytes + ev.result_nbytes
                         for rank in range(p)
                         for ev in collector.events_of(rank))

    stream_tree, stream_bytes = traced_bytes(
        lambda tc: ScalParC(p, InductionConfig(
            max_depth=8, stream_chunk_records=chunk, sketch_size=256),
            machine=None).fit_stream(data, trace=tc))
    refit_bytes = 0
    for k in range(1, epochs + 1):
        refit_tree, moved = traced_bytes(
            lambda tc: ScalParC(p, InductionConfig(max_depth=8),
                                machine=None).fit(
                data.take(np.arange(k * chunk)), trace=tc))
        refit_bytes += moved
    assert stream_bytes < refit_bytes

    def acc(tree):
        return float((tree.predict(test) == test.labels).mean())

    assert acc(stream_tree) >= acc(refit_tree) - 0.02

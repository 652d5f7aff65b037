"""Streaming (chunked-ingest) induction: sketches, equivalence, resume.

The load-bearing oracle: with finalize-only growth and lossless sketches
(every (node, attribute) pair's distinct values fit the sketch capacity),
a streamed fit is **bit-identical** to batch ScalParC on the same
records — any chunking, any world size, any backend.  On top of that:
epoch cuts resume exactly (mid-stream kill → identical continuation,
including on a different world size), ``partial_fit`` folds segments
into one tree, and lossy sketches degrade gracefully.
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
from repro.runtime.checkpoint import CheckpointError, LoadedCheckpoint
from repro.streaming import (
    ChunkSource,
    build_sketch,
    empty_sketch,
    merge_sketches,
    merge_stacks,
    sketch_entries,
    sketch_identity_like,
)
from repro.streaming import induction, sketch
from repro.streaming.sketch import build_sketch_stack
from repro.tree.compile import KIND_LEAF

from tests.conftest import assert_trees_equal

_FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

#: lossless streaming config: generous sketch capacity, growth only at
#: finalize — the settings under which streamed == batch, bit for bit
LOSSLESS = dict(max_depth=6, sketch_size=8192, stream_grow_records=0)


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
    ds = paper_dataset(1000, "F2", seed=1)
    src = ChunkSource(ds, 300)
    assert src.n_epochs() == 4
    assert src.n_epochs(offset=600) == 2
    sizes = [src.chunk(off).n_records for off in (0, 300, 600, 900)]
    assert sizes == [300, 300, 300, 100]
    np.testing.assert_array_equal(src.chunk(300).labels, ds.labels[300:600])


@pytest.mark.parametrize("size", [1, 3, 7])
def test_rank_blocks_tile_the_chunk(size):
    """The per-rank range take must equal the old "materialize the whole
    chunk, then slice" blocks — including the short tail chunk and ranks
    that get nothing."""
    ds = paper_dataset(1000, "F2", seed=1)
    src = ChunkSource(ds, 300)
    for offset in (0, 300, 900, 1000):
        whole = src.chunk(offset)
        for rank in range(size):
            want = whole.block(rank, size)
            got = src.rank_block(offset, rank, size)
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
       eager=st.booleans(), subsets=st.booleans())
def test_folded_count_rows_are_exact_counts(seed, nprocs, chunk, n_classes,
                                            n_values, eager, subsets):
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
                         stream_grow_records=120 if eager else 0,
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
    """Every local sketch block a rank builds — from the presort a split
    regrouped, from a fresh lexsort, or over an ingested chunk — equals
    ``build_sketch`` of each node's records (trimmed to the block's rows)
    for every continuous attribute, over several eager split passes and
    the finalize, in the lossless and in the overflowing regime; the
    count rows built beside them are each node's exact class counts per
    categorical value (``car`` has 20 values: more than 16 slots)."""
    ds = paper_dataset(1600, "F5", seed=7)
    cfg = _stream_cfg(sketch_size=sketch_size, stream_chunk_records=400,
                      stream_grow_records=150)
    built, regrouped = [], []
    build = induction._SketchSource._local_sketches
    regroup = induction.kernels.stable_regroup

    def checked(self, fids, caps, lo=0):
        runs = build(self, fids, caps, lo)
        schema = self.frontier.schema
        continuous = [a for a, spec in enumerate(schema)
                      if spec.is_continuous]
        for run, block, counts in runs:
            for fid, sketches, row in zip(run.tolist(), block, counts):
                mine = lo + np.flatnonzero(self.node_of[lo:] == fid)
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
    """Finalize-only growth makes the epoch boundaries invisible: any
    chunk size (including one bigger than the stream) gives one tree."""
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
    ds = paper_dataset(2000, "F5", seed=7)
    cfg = _stream_cfg()
    one_shot = ScalParC(4, cfg, machine=None).fit_stream(ds)

    clf = ScalParC(4, cfg, machine=None)
    killed = clf.fit_stream(ds, checkpoint=CheckpointConfig(
        dir=str(tmp_path)), max_epochs=3)
    # the killed fit stopped at a sealed cut: frontier open, not final
    assert killed.tree.n_leaves < \
        one_shot.tree.n_leaves
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
# lossy sketches and eager growth: graceful degradation
# ----------------------------------------------------------------------


def test_lossy_sketch_still_classifies_well():
    ds = paper_dataset(2000, "F5", seed=7)
    cfg = _stream_cfg(sketch_size=16)
    tree = ScalParC(4, cfg, machine=None).fit_stream(ds).tree
    accuracy = float((tree.predict(ds) == ds.labels).mean())
    assert accuracy > 0.80


def test_eager_growth_splits_before_end_of_stream(tmp_path):
    """With a grow threshold, the frontier must already hold real splits
    at a mid-stream cut (growth is no longer finalize-only)."""
    ds = paper_dataset(2000, "F5", seed=7)
    cfg = _stream_cfg(stream_grow_records=300, sketch_size=64)
    clf = ScalParC(4, cfg, machine=None)
    killed = clf.fit_stream(ds, checkpoint=CheckpointConfig(
        dir=str(tmp_path)), max_epochs=3)
    assert killed.tree.n_leaves > 1
    resumed = clf.fit_stream(ds, checkpoint=CheckpointConfig(
        dir=str(tmp_path), resume=True))
    accuracy = float((resumed.tree.predict(ds) == ds.labels).mean())
    assert accuracy > 0.80


def _drift_stream() -> Dataset:
    """600 records labelled ``x > 0.5``, then 1200 labelled
    ``(x > 0.5) xor (y > 0.5)``: leaves that closed pure on the first
    concept drift past the reopen threshold on the second."""
    rng = np.random.default_rng(3)
    n_before, n = 600, 1800
    x, y = rng.random(n).round(3), rng.random(n).round(3)
    labels = (x > 0.5).astype(np.int64)
    labels[n_before:] ^= y[n_before:] > 0.5
    schema = Schema(attributes=(
        AttributeSpec("x", CONTINUOUS), AttributeSpec("y", CONTINUOUS),
        AttributeSpec("g", CATEGORICAL, 3)), n_classes=2)
    return Dataset(schema=schema,
                   columns=[x, y, rng.integers(0, 3, n).astype(np.int32)],
                   labels=labels, name="drift")


#: scenario → (dataset, config, structure digest per world size).  The
#: eager and drift digests were recorded from the per-node grow loop the
#: batched rounds replaced, so they pin today's loop to it bit for bit.
#: The lossy ones were recorded once leaves took their counts from exact
#: class totals instead of their parent's sketch (the lossy tree's counts
#: and close decisions moved; see the leaf-count test below), and again
#: at p = 1 and 2 once categorical statistics became exact count rows
#: (``car`` has 20 values, more than the 16 slots a sketch held: the
#: first node that differs is a ``car`` split whose sketch had merged
#: codes into bins).  Lossless scenarios are world-size independent;
#: lossy sketches compress per rank, so their tree legitimately depends
#: on p.
_MODES = {
    "eager": (
        lambda: paper_dataset(2000, "F5", seed=7),
        dict(stream_grow_records=500),
        dict.fromkeys((1, 2, 3), "45272adfd2f47d9e6456458ee19dd3ce")),
    "lossy": (
        lambda: paper_dataset(2000, "F5", seed=7),
        dict(sketch_size=16),
        {1: "1a3a8815f46e6b61d0d9ca05cf581524",
         2: "025c7138d8c5793c8dd14cf160e18e31",
         3: "e108c891ec6e09511df10cc2290c16cc"}),
    "drift": (
        _drift_stream,
        dict(max_depth=5, sketch_size=2048, stream_chunk_records=150,
             stream_grow_records=100, stream_reopen_delta=0.1),
        dict.fromkeys((1, 2, 3), "6f56a76cba5d366a5408c4a505644c74")),
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


def test_drift_stream_reopens_and_resplits(monkeypatch):
    """The drift scenario is not vacuous: leaves do reopen, a reopened
    leaf splits again, and its sketches are built in a pass whose presort
    does not hold its records (the pass must sort them afresh)."""
    seen = {"reopened": set(), "resplit": 0, "uncovered": 0}
    totals = induction._SketchSource.class_totals
    build = induction._SketchSource._local_sketches
    grow = LevelFrontier.grow

    def spy_totals(self, level, fids):
        before = self.frontier.open_.copy()
        out = totals(self, level, fids)
        seen["reopened"] |= set(
            np.flatnonzero(self.frontier.open_ & ~before).tolist())
        return out

    def spy_build(self, fids, caps, lo=0):
        held = set() if self.presort is None else \
            set(self.node_of[self.presort[0]].tolist())
        if not lo and seen["reopened"] & (set(fids.tolist()) - held):
            seen["uncovered"] += 1
        return build(self, fids, caps, lo)

    def spy_grow(self, fids, level_totals, best, split_ok, *rest):
        seen["resplit"] += len(seen["reopened"]
                               & set(fids[split_ok].tolist()))
        return grow(self, fids, level_totals, best, split_ok, *rest)

    monkeypatch.setattr(induction._SketchSource, "class_totals", spy_totals)
    monkeypatch.setattr(induction._SketchSource, "_local_sketches",
                        spy_build)
    monkeypatch.setattr(LevelFrontier, "grow", spy_grow)
    make, over, _ = _MODES["drift"]
    ScalParC(1, _stream_cfg(**over), machine=None,
             backend="thread").fit_stream(make())
    assert seen["reopened"] and seen["resplit"] and seen["uncovered"], seen


@pytest.mark.parametrize("nprocs", [1, 2, 3])
@pytest.mark.parametrize("mode", sorted(_MODES))
def test_leaf_counts_match_the_records_routed_to_them(mode, nprocs):
    """Route the training set through the streamed tree's table: every
    leaf's class counts are those of the records that reach it, lossy
    sketches included — a child's counts are the next pass's exact class
    totals, never an estimate from its parent's sketch.  One exception
    is by design: a leaf closed mid-stream keeps the counts it closed
    with until its records' class distribution moves more than
    ``stream_reopen_delta`` from them (which reopens it)."""
    make, over, _ = _MODES[mode]
    ds, cfg = make(), _stream_cfg(**over)
    table = ScalParC(nprocs, cfg, machine=None).fit_stream(ds).tree.compiled()
    c = ds.schema.n_classes
    routed = np.bincount(
        table.apply(np.column_stack(ds.columns)) * c + ds.labels,
        minlength=table.n_nodes * c).reshape(-1, c)
    stale = (table.kind == KIND_LEAF) & (
        routed != table.class_counts).any(axis=1)
    if cfg.stream_grow_records == 0:
        assert not stale.any(), np.flatnonzero(stale)
    shift = 0.5 * np.abs(
        routed[stale] / routed[stale].sum(axis=1, keepdims=True)
        - table.class_counts[stale] / table.n_records[stale, None]).sum(axis=1)
    assert (shift <= cfg.stream_reopen_delta).all()


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
        calls.setdefault(comm.rank, []).append(
            (caps[pos], source.local_counts[source.fids[pos]].sum(axis=1)))
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


@pytest.mark.parametrize("mode", ["eager", "drift"])
def test_streamed_trees_and_cuts_hold_no_node_objects(mode, tmp_path):
    """The streaming tree is table rows end to end: neither a rank's
    pickled tree nor an epoch cut's shared payload (read as written)
    names a node class."""
    make, over, digests = _MODES[mode]
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
    every Stream.* collective of one eager streamed fit; the trace must
    pass the conformance checker."""
    ds = paper_dataset(1500, "F5", seed=9)
    cfg = _stream_cfg(sketch_size=64, stream_grow_records=400)
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


def test_midgrow_kill_and_resume_matches_one_shot(tmp_path):
    """Eager growth (lossless sketches): a cut taken while the tree is
    half grown resumes into exactly the one-shot tree."""
    ds = paper_dataset(2000, "F5", seed=7)
    cfg = _stream_cfg(stream_grow_records=500)
    one_shot = ScalParC(3, cfg, machine=None).fit_stream(ds)
    clf = ScalParC(3, cfg, machine=None)
    killed = clf.fit_stream(ds, checkpoint=CheckpointConfig(
        dir=str(tmp_path)), max_epochs=4)
    assert 1 < killed.tree.n_leaves < \
        one_shot.tree.n_leaves
    resumed = clf.fit_stream(ds, checkpoint=CheckpointConfig(
        dir=str(tmp_path), resume=True))
    assert_trees_equal(one_shot.tree, resumed.tree,
                       "eager: kill at epoch 4 + resume")


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
    {"stream_grow_records": -1},
    {"stream_reopen_delta": 1.5},
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

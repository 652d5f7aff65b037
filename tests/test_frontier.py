"""The shared level loop (repro.core.frontier): rule tables, node-row
emission, the cut payload's round trip, the breadth-first table under
any order of passes and a tiny in-memory source — all without a
communicator, a thread or a process — and, last, the table the real
inducers bring home against the oracle's, on every backend."""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import induce_serial
from repro.baselines.serial_reference import (
    _continuous_candidate,
    best_split_for_counts,
)
from repro.core import InductionConfig, ScalParC
from repro.core.frontier import (
    LevelFrontier,
    LevelSource,
    accepted_splits,
    grow_levels,
    terminal_nodes,
)
from repro.core.splits import candidate_beats, encode_mask, pack_candidates
from repro.datagen import generate_quest, random_dataset
from repro.datagen.schema import AttributeSpec, Schema
from repro.tree import compile_tree
from repro.tree.compile import (
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    KIND_LEAF,
    assemble_table,
)
from repro.tree.model import CategoricalSplit, ContinuousSplit, Leaf

from tests.conftest import assert_trees_equal
from tests.test_golden_trees import FIXTURES


# ----------------------------------------------------------------------
# the two rule functions
# ----------------------------------------------------------------------


def test_terminal_rule_table():
    totals = np.array([[5, 0], [1, 1], [4, 4], [4, 4], [0, 0]])
    depth = np.array([0, 0, 3, 2, 1])
    capped = InductionConfig(min_split_records=3, max_depth=3)
    #                     pure  under-mass  depth cap  open   empty
    assert terminal_nodes(totals, depth, capped).tolist() == \
        [True, True, True, False, True]
    uncapped = InductionConfig(min_split_records=3, max_depth=None)
    assert terminal_nodes(totals, depth, uncapped).tolist() == \
        [True, True, False, False, True]
    assert terminal_nodes(totals[:0], depth[:0], capped).tolist() == []


def test_acceptance_rule_table():
    totals = np.array([[2, 2]] * 5)              # gini impurity 0.5
    best = pack_candidates(5)
    best[0] = (0.25, 0.0, 1.0)                   # gain == min_improvement
    best[1] = (0.25, 0.0, 1.0)                   # ... but not a candidate
    best[2] = (0.30, 0.0, 1.0)                   # gain below the bar
    best[4] = (0.0, 1.0, 0.0)                    # clearly good
    candidates = np.array([True, False, True, True, True])
    config = InductionConfig(min_improvement=0.25)
    assert accepted_splits(best, totals, candidates, config).tolist() == \
        [True, False, False, False, True]        # row 3: inf best
    tighter = InductionConfig(min_improvement=float(np.nextafter(0.25, 1)))
    assert accepted_splits(best, totals, candidates, tighter).tolist() == \
        [False, False, False, False, True]


# ----------------------------------------------------------------------
# node emission and child numbering
# ----------------------------------------------------------------------

_SCHEMA = Schema(attributes=(
    AttributeSpec("x", "continuous"),
    AttributeSpec("g", "categorical", n_values=4),
    AttributeSpec("h", "categorical", n_values=3),
    AttributeSpec("r", "categorical", n_values=5),
), n_classes=2)


def _pass(frontier, totals, best, split_ok, layouts):
    """One batch pass: visit every open node, close what does not
    split."""
    split_ok = np.asarray(split_ok)
    return frontier.grow(np.flatnonzero(frontier.open_), np.asarray(totals),
                         best, split_ok, layouts, ~split_ok)


def _mixed_level():
    """A five-way categorical root, then its five children: continuous
    winner, empty leaf, multiway winner, pure leaf, binary-subset
    winner."""
    frontier = LevelFrontier(_SCHEMA)
    root_best = pack_candidates(1)
    root_best[0] = (0.4, 3.0, 0.0)
    _pass(frontier, [[10, 30]], root_best, [True],
          {0: ([0, 1, 2, 3, 4], 5, 2)})
    totals = np.array([[6, 4], [0, 0], [5, 5], [7, 0], [3, 5]])
    best = pack_candidates(5)
    best[0] = (0.1, 0.0, 2.5)
    best[2] = (0.2, 1.0, 0.0)
    best[4] = (0.3, 2.0, encode_mask(np.array([True, False, True])))
    split_ok = np.array([True, False, True, False, True])
    layouts = {2: ([0, -1, 1, 2], 3, 2), 4: ([0, 1, 0], 2, 0)}
    decisions = _pass(frontier, totals, best, split_ok, layouts)
    return frontier, decisions


def _close(frontier, totals):
    """Close every open node as a leaf."""
    m = int(frontier.open_.sum())
    decisions = _pass(frontier, totals, pack_candidates(m),
                      np.zeros(m, dtype=bool), {})
    assert decisions.n_next == 0 and not frontier.open_.any()


def test_grow_emits_the_level_and_numbers_the_children():
    frontier, decisions = _mixed_level()
    assert frontier.depth.tolist() == [0] + [1] * 5 + [2] * 7
    level = np.arange(1, 6)
    assert frontier.kind[level].tolist() == [
        KIND_CONTINUOUS, KIND_LEAF, KIND_CATEGORICAL, KIND_LEAF,
        KIND_CATEGORICAL]
    assert frontier.kind.dtype == np.uint8
    assert frontier.feature[level].tolist() == [0, -1, 1, -1, 2]
    assert frontier.threshold[1] == 2.5
    assert np.isnan(frontier.threshold[2:]).all()
    assert frontier.n_records[level].tolist() == [10, 0, 10, 7, 8]
    assert frontier.class_counts[level].tolist() == \
        [[6, 4], [0, 0], [5, 5], [7, 0], [3, 5]]
    # the empty child takes the parent's majority, the pure one its own
    assert frontier.leaf_label[level].tolist() == [-1, 1, -1, 0, -1]
    assert frontier.n_children[level].tolist() == [2, 0, 3, 0, 2]
    assert frontier.default_child[level].tolist() == [0, 0, 2, 0, 0]
    assert frontier.first_child[[1, 3, 5]].tolist() == [6, 8, 11]
    assert frontier.slots[1, :2].tolist() == [0, 1]
    assert frontier.slots[3, :4].tolist() == [0, -1, 1, 2]
    assert frontier.slots[5, :3].tolist() == [0, 1, 0]

    assert decisions.splitting.tolist() == [True, False, True, False, True]
    assert decisions.winner_attr.tolist() == [0, -1, 1, -1, 2]
    assert decisions.threshold[0] == 2.5
    assert np.isnan(decisions.threshold[1:]).all()
    assert decisions.child_base.tolist() == [0, 0, 2, 0, 5]
    assert decisions.n_next == 7
    assert sorted(decisions.cat_layouts) == [2, 4]
    assert decisions.cat_layouts[2].tolist() == [0, -1, 1, 2]
    assert decisions.cat_layouts[4].dtype == np.int64
    decisions.validate()

    # the open level: seven children, each carrying its parent's majority
    assert np.flatnonzero(frontier.open_).tolist() == list(range(6, 13))
    assert frontier.leaf_label[6:].tolist() == [0, 0, 0, 0, 0, 1, 1]


def test_blocks_assemble_into_the_tree_the_nodes_compile_to():
    frontier, _ = _mixed_level()
    _close(frontier, [[1, 0]] * 4 + [[0, 0]] + [[0, 2]] * 2)
    table, fid = frontier.table()
    # level by level, the fids already are breadth-first
    assert fid.tolist() == list(range(13))
    assert table.n_nodes == 1 + 5 + 7 and table.max_depth == 2
    assert table.fanout.tolist()[:6] == [5, 2, 0, 4, 0, 3]
    # children are numbered breadth-first, in node order within a level
    assert table.child_table.tolist() == [
        1, 2, 3, 4, 5,              # root: one child per code
        6, 7,                       # continuous: left, right
        8, 10, 9, 10,               # multiway: absent code -> default
        11, 12, 11,                 # subset: two codes share child 0
    ]
    assert table.leaf_label.tolist()[6:] == [0, 0, 0, 0, 0, 1, 1]

    tree = table.to_tree()
    root = tree.root
    assert [type(child) for child in root.children] == [
        ContinuousSplit, Leaf, CategoricalSplit, Leaf, CategoricalSplit]
    cont, empty, multi, pure, subset = root.children
    assert (cont.attr_index, cont.threshold, cont.n_records) == (0, 2.5, 10)
    assert empty.label == 1 and empty.n_records == 0    # parent majority
    assert pure.label == 0 and pure.class_counts.tolist() == [7, 0]
    assert multi.value_to_child.tolist() == [0, -1, 1, 2]
    assert multi.value_to_child.dtype == np.int32
    assert (len(multi.children), multi.default_child) == (3, 2)
    assert (len(subset.children), subset.default_child) == (2, 0)
    assert all(child.depth == 1 for child in root.children)
    # an empty grandchild inherits *its* parent's majority ([5, 5] -> 0)
    assert multi.children[2].n_records == 0 and multi.children[2].label == 0
    rebuilt = compile_tree(tree)
    assert rebuilt.structure_digest == table.structure_digest


def test_root_level_sets_the_root():
    frontier = LevelFrontier(_SCHEMA)
    assert (frontier.open_.tolist(), frontier.depth.tolist()) == \
        ([True], [0])
    decisions = _pass(frontier, [[3, 1]], pack_candidates(1), [False], {})
    assert decisions.n_next == 0 and not frontier.open_.any()
    root = frontier.table()[0].to_tree().root
    assert isinstance(root, Leaf) and root.label == 0 and root.depth == 0


def test_cut_payload_round_trip_keeps_parent_identity():
    """The frontier's rows pickled mid-growth — the checkpoint cut's
    replicated payload — hold arrays only and reload with every open node
    still under its parent: the parent's majority travels with it (the
    empty child's label) and growth continues into the same tree."""
    frontier, _ = _mixed_level()
    blob = pickle.dumps(frontier.rows())
    assert b"Leaf" not in blob and b"Split" not in blob
    resumed = LevelFrontier.from_rows(_SCHEMA, pickle.loads(blob))
    assert resumed.depth[resumed.open_].tolist() == [2] * 7
    assert resumed.leaf_label[resumed.open_].tolist() == \
        frontier.leaf_label[frontier.open_].tolist()

    tail = [[1, 0]] * 4 + [[0, 0]] + [[0, 2]] * 2
    _close(frontier, tail)
    _close(resumed, tail)
    assert resumed.table()[0].structure_digest == \
        frontier.table()[0].structure_digest
    assert_trees_equal(resumed.table()[0].to_tree(),
                       frontier.table()[0].to_tree(), "(reloaded)")


# ----------------------------------------------------------------------
# any order of passes: the table stays breadth-first
# ----------------------------------------------------------------------


def _random_pass(rng, m):
    """``(totals, best, split_ok, layouts)`` of a pass over ``m`` nodes:
    random counts, about half the nodes splitting on a random attribute
    (a random threshold, or a random categorical layout whose children
    all receive a code)."""
    totals = rng.integers(0, 5, (m, 2))
    best, layouts = pack_candidates(m), {}
    split_ok = rng.random(m) < 0.5
    for k in np.flatnonzero(split_ok).tolist():
        attr = int(rng.integers(len(_SCHEMA)))
        best[k] = (0.1, attr, rng.random())
        if not _SCHEMA[attr].is_continuous:
            width = _SCHEMA[attr].n_values
            n_children = int(rng.integers(2, width + 1))
            v2c = rng.permutation(np.concatenate([
                np.arange(n_children),
                rng.integers(-1, n_children, width - n_children)]))
            layouts[k] = (v2c.tolist(), n_children,
                          int(rng.integers(n_children)))
    return totals, best, split_ok, layouts


def _level_blocks(levels):
    """The oracle: the frontier before per-node rows, one block of
    ``assemble_table``'s columns per level (the open level's labels its
    parents' majorities), the tree being the blocks concatenated."""
    continuous = np.array([spec.is_continuous for spec in _SCHEMA])
    blocks, open_label = [], np.zeros(1, dtype=np.int64)
    for totals, best, split_ok, layouts in levels:
        winner_attr = np.where(split_ok, best[:, 1], -1).astype(np.int64)
        cont = split_ok & continuous[winner_attr]
        n_children = np.where(cont, 2, 0)
        fanout, default = n_children.copy(), np.zeros(len(totals), int)
        slots = [[0, 1] if c else [] for c in cont]
        for k in np.flatnonzero(split_ok & ~cont).tolist():
            slots[k], n_children[k], default[k] = layouts[k]
            fanout[k] = len(slots[k])
        n, majority = totals.sum(axis=1), np.argmax(totals, axis=1)
        blocks.append(dict(
            kind=np.where(cont, KIND_CONTINUOUS, np.where(
                split_ok, KIND_CATEGORICAL, KIND_LEAF)),
            feature=winner_attr, threshold=np.where(cont, best[:, 2], np.nan),
            class_counts=totals, n_records=n,
            leaf_label=np.where(split_ok, -1,
                                np.where(n == 0, open_label, majority)),
            default_child=default, n_children=n_children, fanout=fanout,
            slot_child=np.array(sum(slots, []), dtype=np.int64)))
        open_label = np.repeat(majority, n_children)
    return assemble_table(_SCHEMA, **{
        name: np.concatenate([block[name] for block in blocks])
        for name in blocks[0]})


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n_passes=st.integers(1, 6))
def test_any_pass_sequence_keeps_the_table_breadth_first(seed, n_passes):
    """Passes that visit any subset of the open nodes and split, close,
    hold open or reopen them — a stream's freedom — leave ``table()``
    breadth-first: bit for bit what ``compile_tree`` makes of its own
    node objects, every fid listed once, each node its fid's row."""
    rng = np.random.default_rng(seed)
    frontier = LevelFrontier(_SCHEMA)
    for _ in range(n_passes):
        closed = np.flatnonzero((frontier.kind == KIND_LEAF)
                                & ~frontier.open_)
        frontier.open_[closed[rng.random(len(closed)) < 0.3]] = True
        live = np.flatnonzero(frontier.open_)
        fids = live[rng.random(len(live)) < 0.7]
        totals, best, split_ok, layouts = _random_pass(rng, len(fids))
        frontier.grow(fids, totals, best, split_ok, layouts,
                      ~split_ok & (rng.random(len(fids)) < 0.5))
    table, fid = frontier.table()
    assert compile_tree(table.to_tree()).structure_digest == \
        table.structure_digest
    assert sorted(fid.tolist()) == list(range(len(frontier.kind)))
    np.testing.assert_array_equal(table.class_counts,
                                  frontier.class_counts[fid])
    np.testing.assert_array_equal(table.feature, frontier.feature[fid])
    np.testing.assert_array_equal(table.fanout > 0,
                                  frontier.kind[fid] != KIND_LEAF)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(1, 5))
def test_batch_passes_equal_the_concatenated_level_blocks(seed, depth):
    """Passes shaped like a batch fit — each visits the last one's
    children and closes what does not split — number the fids
    breadth-first already and give, array for array, the table the
    per-level blocks concatenate to."""
    rng = np.random.default_rng(seed)
    frontier, levels = LevelFrontier(_SCHEMA), []
    while frontier.open_.any():
        levels.append(_random_pass(rng, int(frontier.open_.sum())))
        if len(levels) > depth:
            levels[-1][2][:] = False
        _pass(frontier, *levels[-1])
    table, fid = frontier.table()
    assert fid.tolist() == list(range(len(fid)))
    assert table.structure_digest == _level_blocks(levels).structure_digest


# ----------------------------------------------------------------------
# the loop over a tiny in-memory source
# ----------------------------------------------------------------------


class _MemorySource(LevelSource):
    """Brute force over the raw columns: one node id per record, every
    candidate node scored attribute by attribute with the oracle's
    per-node helpers."""

    def __init__(self, ds, config):
        self.ds, self.config = ds, config
        self.node_of = np.zeros(ds.n_records, dtype=np.int64)

    def class_totals(self, level, fids):
        live, c = self.node_of >= 0, self.ds.schema.n_classes
        return np.bincount(self.node_of[live] * c + self.ds.labels[live],
                           minlength=len(fids) * c).reshape(len(fids), c)

    def best_splits(self, totals, candidates):
        best, state = pack_candidates(len(totals)), {}
        for k in np.flatnonzero(candidates).tolist():
            idx = np.flatnonzero(self.node_of == k)
            labels = self.ds.labels[idx].astype(np.int64)
            for a, spec in enumerate(self.ds.schema):
                col, row = self.ds.columns[a][idx], None
                if spec.is_continuous:
                    found = _continuous_candidate(col, idx, labels,
                                                  totals[k], self.config)
                    row = found and (found[0], a, found[1])
                else:
                    matrix = np.bincount(
                        col * len(totals[k]) + labels,
                        minlength=spec.n_values * len(totals[k]),
                    ).reshape(spec.n_values, -1)
                    score, mask = best_split_for_counts(matrix, self.config)
                    if np.isfinite(score):
                        row = (score, a, encode_mask(mask))
                if row and candidate_beats(np.array(row, float), best[k]):
                    best[k] = row
                    if not spec.is_continuous:
                        state.setdefault(a, {})[k] = (matrix, mask)
        return best, state

    def partition(self, decisions):
        new = np.full_like(self.node_of, -1)
        for k in np.flatnonzero(decisions.splitting).tolist():
            idx = np.flatnonzero(self.node_of == k)
            col = self.ds.columns[decisions.winner_attr[k]][idx]
            child = decisions.cat_layouts[k][col] if k in decisions.cat_layouts \
                else col >= decisions.threshold[k]
            new[idx] = decisions.child_base[k] + child
        self.node_of = new


@pytest.mark.parametrize("subsets", [False, True])
def test_memory_source_grows_the_serial_tree(subsets):
    schema = Schema(attributes=(
        AttributeSpec("x", "continuous"),
        AttributeSpec("g", "categorical", n_values=5),
        AttributeSpec("y", "continuous"),
        AttributeSpec("h", "categorical", n_values=3),
    ), n_classes=3)
    ds = random_dataset(np.random.default_rng(23), 160, schema,
                        duplicate_heavy=True)
    config = InductionConfig(categorical_binary_subsets=subsets,
                             max_depth=6)
    frontier = LevelFrontier(schema)
    tree = grow_levels(frontier, config, _MemorySource(ds, config))
    assert_trees_equal(tree, induce_serial(ds, config), "(memory source)")
    assert not frontier.open_.any() and frontier.depth.max() == tree.depth
    assert tree.compiled().structure_digest == \
        compile_tree(induce_serial(ds, config)).structure_digest
    assert tree.depth > 2


# ----------------------------------------------------------------------
# the table a fit brings home is the oracle's tree, compiled
# ----------------------------------------------------------------------


@pytest.mark.parametrize("subsets", [False, True])
@pytest.mark.parametrize("backend",
                         ["thread", "process", "cooperative", "tcp"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fitted_table_is_the_serial_trees_compiled_form(name, backend,
                                                        subsets):
    """On the golden configurations, both categorical policies, every
    backend and p in {1, 2, 3, 5}: the fitted tree arrives as the table
    the level loop assembled — no node built on the way — and that table
    is, array for array, ``compile_tree`` of the serial reference's node
    tree."""
    fn, n, seed, config, _ = FIXTURES[name]
    config = replace(config, categorical_binary_subsets=subsets)
    ds = generate_quest(n, fn, seed=seed)
    oracle = compile_tree(induce_serial(ds, config))
    for p in (1, 2, 3, 5):
        tree = ScalParC(p, config, machine=None, backend=backend).fit(ds).tree
        assert tree._root is None, (backend, p)
        assert tree.compiled().structure_digest == oracle.structure_digest, \
            (backend, p)

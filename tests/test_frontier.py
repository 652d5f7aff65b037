"""The shared level loop (repro.core.frontier): rule tables, level-block
emission, the cut payload's round trip and a tiny in-memory source — all
without a communicator, a thread or a process — and, last, the table the
real inducers bring home against the oracle's, on every backend."""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

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


def _mixed_level():
    """A five-way categorical root, then its five children: continuous
    winner, empty leaf, multiway winner, pure leaf, binary-subset
    winner."""
    frontier = LevelFrontier()
    root_best = pack_candidates(1)
    root_best[0] = (0.4, 3.0, 0.0)
    frontier.grow(_SCHEMA, np.array([[10, 30]]), root_best,
                  np.array([True]), {0: ([0, 1, 2, 3, 4], 5, 2)})
    totals = np.array([[6, 4], [0, 0], [5, 5], [7, 0], [3, 5]])
    best = pack_candidates(5)
    best[0] = (0.1, 0.0, 2.5)
    best[2] = (0.2, 1.0, 0.0)
    best[4] = (0.3, 2.0, encode_mask(np.array([True, False, True])))
    split_ok = np.array([True, False, True, False, True])
    layouts = {2: ([0, -1, 1, 2], 3, 2), 4: ([0, 1, 0], 2, 0)}
    decisions = frontier.grow(_SCHEMA, totals, best, split_ok, layouts)
    return frontier, decisions


def _close(frontier, totals):
    """Grow one all-leaf level over ``frontier``'s open nodes."""
    m = frontier.n_open
    decisions = frontier.grow(_SCHEMA, np.asarray(totals),
                              pack_candidates(m), np.zeros(m, dtype=bool),
                              {})
    assert decisions.n_next == 0 and frontier.n_open == 0


def test_grow_emits_the_level_and_numbers_the_children():
    frontier, decisions = _mixed_level()
    assert frontier.depth == 2 and len(frontier.blocks) == 2
    block = frontier.blocks[1]
    assert block["kind"].tolist() == [
        KIND_CONTINUOUS, KIND_LEAF, KIND_CATEGORICAL, KIND_LEAF,
        KIND_CATEGORICAL]
    assert block["kind"].dtype == np.uint8
    assert block["feature"].tolist() == [0, -1, 1, -1, 2]
    assert block["threshold"][0] == 2.5
    assert np.isnan(block["threshold"][1:]).all()
    assert block["n_records"].tolist() == [10, 0, 10, 7, 8]
    assert block["class_counts"].tolist() == \
        [[6, 4], [0, 0], [5, 5], [7, 0], [3, 5]]
    # the empty child takes the parent's majority, the pure one its own
    assert block["leaf_label"].tolist() == [-1, 1, -1, 0, -1]
    assert block["n_children"].tolist() == [2, 0, 3, 0, 2]
    assert block["fanout"].tolist() == [2, 0, 4, 0, 3]
    assert block["default_child"].tolist() == [0, 0, 2, 0, 0]
    assert block["slot_child"].tolist() == [0, 1, 0, -1, 1, 2, 0, 1, 0]

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
    assert frontier.n_open == 7
    assert frontier.open_label.tolist() == [0, 0, 0, 0, 0, 1, 1]


def test_blocks_assemble_into_the_tree_the_nodes_compile_to():
    frontier, _ = _mixed_level()
    _close(frontier, [[1, 0]] * 4 + [[0, 0]] + [[0, 2]] * 2)
    table = frontier.table(_SCHEMA)
    assert table.n_nodes == 1 + 5 + 7 and table.max_depth == 2
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
    frontier = LevelFrontier()
    assert (frontier.n_open, frontier.depth, frontier.blocks) == (1, 0, [])
    decisions = frontier.grow(_SCHEMA, np.array([[3, 1]]), pack_candidates(1),
                              np.array([False]), {})
    assert decisions.n_next == 0 and frontier.n_open == 0
    root = frontier.table(_SCHEMA).to_tree().root
    assert isinstance(root, Leaf) and root.label == 0 and root.depth == 0


def test_cut_payload_round_trip_keeps_parent_identity():
    """The frontier pickled mid-growth — the checkpoint cut's replicated
    payload — holds arrays only and reloads with every open node still
    under its parent: the parent's majority travels with it (the empty
    child's label) and growth continues into the same tree."""
    frontier, _ = _mixed_level()
    blob = pickle.dumps(frontier)
    assert b"Leaf" not in blob and b"Split" not in blob
    resumed = pickle.loads(blob)
    assert (resumed.n_open, resumed.depth) == (7, 2)
    assert resumed.open_label.tolist() == frontier.open_label.tolist()

    tail = [[1, 0]] * 4 + [[0, 0]] + [[0, 2]] * 2
    _close(frontier, tail)
    _close(resumed, tail)
    assert resumed.table(_SCHEMA).structure_digest == \
        frontier.table(_SCHEMA).structure_digest
    assert_trees_equal(resumed.table(_SCHEMA).to_tree(),
                       frontier.table(_SCHEMA).to_tree(), "(reloaded)")


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

    def class_totals(self, level, n_nodes):
        live, c = self.node_of >= 0, self.ds.schema.n_classes
        return np.bincount(self.node_of[live] * c + self.ds.labels[live],
                           minlength=n_nodes * c).reshape(n_nodes, c)

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
    frontier = LevelFrontier()
    tree = grow_levels(frontier, schema, config, _MemorySource(ds, config))
    assert_trees_equal(tree, induce_serial(ds, config), "(memory source)")
    assert frontier.n_open == 0 and frontier.depth == tree.depth + 1
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

"""The shared level loop (repro.core.frontier): rule tables, node
emission, the cut payload's shape and a tiny in-memory source — all
without a communicator, a thread or a process."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.baselines import induce_serial
from repro.baselines.serial_reference import (
    _continuous_candidate,
    best_split_for_counts,
)
from repro.core import InductionConfig
from repro.core.frontier import (
    LevelFrontier,
    LevelSource,
    accepted_splits,
    grow_levels,
    terminal_nodes,
)
from repro.core.splits import candidate_beats, encode_mask, pack_candidates
from repro.datagen import random_dataset
from repro.datagen.schema import AttributeSpec, Schema
from repro.tree.model import CategoricalSplit, ContinuousSplit, Leaf

from tests.conftest import assert_trees_equal


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
), n_classes=2)


def _mixed_level():
    """Five open nodes under one parent: continuous winner, empty leaf,
    multiway winner, pure leaf, binary-subset winner."""
    parent = CategoricalSplit(
        attr_index=1, value_to_child=np.arange(5, dtype=np.int32),
        n_records=40, class_counts=np.array([10, 30]), depth=0,
        children=[None] * 5,
    )
    frontier = LevelFrontier(parent, [(parent, c, 1) for c in range(5)])
    totals = np.array([[6, 4], [0, 0], [5, 5], [7, 0], [3, 5]])
    best = pack_candidates(5)
    best[0] = (0.1, 0.0, 2.5)
    best[2] = (0.2, 1.0, 0.0)
    best[4] = (0.3, 2.0, encode_mask(np.array([True, False, True])))
    split_ok = np.array([True, False, True, False, True])
    layouts = {2: ([0, -1, 1, 2], 3, 2), 4: ([0, 1, 0], 2, 0)}
    decisions = frontier.grow(_SCHEMA, totals, best, split_ok, layouts)
    return parent, frontier, decisions


def test_grow_emits_the_level_and_numbers_the_children():
    parent, frontier, decisions = _mixed_level()
    kinds = [type(child) for child in parent.children]
    assert kinds == [ContinuousSplit, Leaf, CategoricalSplit, Leaf,
                     CategoricalSplit]
    cont, empty, multi, pure, subset = parent.children
    assert (cont.attr_index, cont.threshold, cont.n_records) == (0, 2.5, 10)
    assert empty.label == 1 and empty.n_records == 0    # parent majority
    assert pure.label == 0 and pure.class_counts.tolist() == [7, 0]
    assert multi.value_to_child.tolist() == [0, -1, 1, 2]
    assert multi.value_to_child.dtype == np.int32
    assert (len(multi.children), multi.default_child) == (3, 2)
    assert (len(subset.children), subset.default_child) == (2, 0)
    assert all(child.depth == 1 for child in parent.children)

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

    assert [(node, slot) for node, slot, _ in frontier.pending] == [
        (cont, 0), (cont, 1), (multi, 0), (multi, 1), (multi, 2),
        (subset, 0), (subset, 1),
    ]
    assert [depth for _, _, depth in frontier.pending] == [2] * 7
    assert frontier.depths().tolist() == [2] * 7
    assert frontier.root is parent


def test_root_level_sets_the_root():
    frontier = LevelFrontier()
    assert frontier.pending == [(None, 0, 0)]
    decisions = frontier.grow(_SCHEMA, np.array([[3, 1]]), pack_candidates(1),
                              np.array([False]), {})
    assert isinstance(frontier.root, Leaf) and frontier.root.label == 0
    assert decisions.n_next == 0 and frontier.pending == []


def test_cut_payload_round_trip_keeps_parent_identity():
    """``(root, pending)`` pickled as one object — the checkpoint cut's
    ``tree`` payload — reloads with the frontier's parents still being
    nodes of the reloaded tree, so growth continues into that tree."""
    _, frontier, _ = _mixed_level()
    root, pending = pickle.loads(
        pickle.dumps((frontier.root, list(frontier.pending))))
    assert pending[0][0] is root.children[0]
    assert pending[2][0] is pending[4][0] is root.children[2]
    assert pending[6][0] is root.children[4]

    resumed = LevelFrontier(root, pending)
    totals = np.array([[1, 0]] * 7)
    resumed.grow(_SCHEMA, totals, pack_candidates(7),
                 np.zeros(7, dtype=bool), {})
    assert resumed.root is root and resumed.pending == []
    assert all(isinstance(leaf, Leaf) for leaf in root.children[2].children)


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
    assert tree.root is frontier.root and frontier.pending == []
    assert tree.depth > 2

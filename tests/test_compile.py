"""Compiled flat-array trees: kernel bit-identity, depth safety, round trip.

The compiled kernel is the serving hot path; these tests pin it to an
index-recursion reference predictor kept here (bit-for-bit labels *and*
probabilities on the golden fixture trees), prove it routes trees far
beyond Python's recursion limit, and guard the flat-array ↔ pointer-form
round trip and the structure digest.
"""

from __future__ import annotations

import json
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import generate_quest, paper_dataset
from repro.datagen.schema import AttributeSpec, Schema
from repro.tree import (
    CategoricalSplit,
    CompiledTree,
    ContinuousSplit,
    DecisionTree,
    Leaf,
    compile_tree,
    from_dict,
    TreeNode,
    predict_columns,
    predict_proba_columns,
    to_dict,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = sorted(p.name for p in GOLDEN_DIR.glob("*.json"))

#: golden fixture name -> the Quest function that generated its data
_FIXTURE_FN = {name: name.split("_")[0].upper() for name in GOLDEN}


def _golden_tree(name: str) -> DecisionTree:
    return from_dict(json.loads((GOLDEN_DIR / name).read_text()))


# ----------------------------------------------------------------------
# the reference predictor: index-array recursion over the node graph
# ----------------------------------------------------------------------


def _route_recursive(node: TreeNode, idx: np.ndarray,
                     columns: list[np.ndarray], out: np.ndarray,
                     proba: np.ndarray) -> None:
    if node.is_leaf:
        out[idx] = node.label
        proba[idx] = node.class_counts / max(int(node.class_counts.sum()), 1)
        return
    child_of = node.route(columns[node.attr_index][idx])
    for c, child in enumerate(node.children):
        sub = idx[child_of == c]
        if len(sub):
            _route_recursive(child, sub, columns, out, proba)


def _predict_recursive(tree: DecisionTree, columns: list[np.ndarray]):
    """``(labels, probabilities)``, paying a Python frame per node per
    subset of records."""
    n = len(columns[0]) if columns else 0
    out = np.empty(n, dtype=np.int32)
    proba = np.zeros((n, tree.schema.n_classes), dtype=np.float64)
    if n:
        _route_recursive(tree.root, np.arange(n, dtype=np.int64),
                         columns, out, proba)
    return out, proba


def predict_columns_recursive(tree, columns):
    return _predict_recursive(tree, columns)[0]


def predict_proba_columns_recursive(tree, columns):
    return _predict_recursive(tree, columns)[1]


def _record_batches(tree: DecisionTree, fn: str):
    """Record batches exercising each golden tree: real Quest draws plus
    a synthetic batch covering out-of-range and unseen values."""
    ds = generate_quest(512, fn, seed=123)
    assert len(ds.schema) == len(tree.schema)
    yield ds.columns
    rng = np.random.default_rng(7)
    synthetic = []
    for spec in tree.schema:
        if spec.is_continuous:
            synthetic.append(rng.normal(0.0, 1e6, 64))
        else:
            synthetic.append(
                rng.integers(0, spec.n_values, 64).astype(np.int32))
    yield synthetic
    yield [c[:1] for c in synthetic]          # single record
    yield [c[:0] for c in synthetic]          # empty batch


@pytest.mark.parametrize("name", GOLDEN)
def test_compiled_predict_bit_identical_on_golden(name):
    tree = _golden_tree(name)
    for columns in _record_batches(tree, _FIXTURE_FN[name]):
        np.testing.assert_array_equal(
            predict_columns(tree, columns),
            predict_columns_recursive(tree, columns),
        )


@pytest.mark.parametrize("name", GOLDEN)
def test_compiled_proba_bit_identical_on_golden(name):
    tree = _golden_tree(name)
    for columns in _record_batches(tree, _FIXTURE_FN[name]):
        compiled = predict_proba_columns(tree, columns)
        reference = predict_proba_columns_recursive(tree, columns)
        assert compiled.dtype == reference.dtype
        assert np.array_equal(compiled, reference)      # bit-for-bit


@pytest.mark.parametrize("name", GOLDEN)
def test_compile_round_trips_golden(name):
    tree = _golden_tree(name)
    restored = compile_tree(tree).to_tree()
    assert restored.structurally_equal(tree)
    assert to_dict(restored) == to_dict(tree)          # incl. depths


def _chain_tree(depth: int) -> DecisionTree:
    """A degenerate ``depth``-deep right-leaning chain on one continuous
    attribute: node i splits at i + 0.5; values below fall to a leaf
    labelled i % 2, values above keep descending."""
    schema = Schema(
        attributes=(AttributeSpec("x", "continuous"),), n_classes=2)
    counts = np.array([1, 1], dtype=np.int64)
    tail: DecisionTree | Leaf = Leaf(
        label=depth % 2, n_records=2, class_counts=counts.copy(),
        depth=depth)
    for i in range(depth - 1, -1, -1):
        left = Leaf(label=i % 2, n_records=2, class_counts=counts.copy(),
                    depth=i + 1)
        tail = ContinuousSplit(
            attr_index=0, threshold=i + 0.5, n_records=4,
            class_counts=counts.copy() * 2, depth=i,
            children=[left, tail],
        )
    return DecisionTree(schema=schema, root=tail)


def test_deep_chain_tree_predicts_without_recursion():
    """~2000-deep tree: the recursive reference blows the interpreter's
    recursion limit; the compiled kernel routes it fine, correctly."""
    depth = 2000
    assert depth * 2 > sys.getrecursionlimit()
    tree = _chain_tree(depth)
    values = np.array([-5.0, 0.2, 1.7, 499.9, 1999.2, 1e12])
    columns = [values]

    with pytest.raises(RecursionError):
        predict_columns_recursive(tree, columns)

    got = predict_columns(tree, columns)
    # value v exits at the first node whose threshold exceeds it
    expected = [min(int(np.floor(v + 0.5)), depth) % 2 if v >= 0 else 0
                for v in values]
    np.testing.assert_array_equal(got, expected)

    proba = predict_proba_columns(tree, columns)
    assert proba.shape == (len(values), 2)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0)


def test_deep_chain_round_trip_digest():
    """Round-tripping the deep tree preserves the compiled structure
    exactly (digest equality — checkable without recursion)."""
    compiled = compile_tree(_chain_tree(2000))
    assert compiled.max_depth == 2000
    rebuilt = compile_tree(compiled.to_tree())
    assert rebuilt.structure_digest == compiled.structure_digest


def test_structure_digest_is_stable_and_discriminating():
    t1 = _golden_tree(GOLDEN[0])
    t2 = _golden_tree(GOLDEN[1])
    assert compile_tree(t1).structure_digest \
        == compile_tree(t1).structure_digest
    assert compile_tree(t1).structure_digest \
        != compile_tree(t2).structure_digest


def test_compiled_cache_on_tree_instance():
    tree = _golden_tree(GOLDEN[0])
    first = tree.compiled()
    assert isinstance(first, CompiledTree)
    assert tree.compiled() is first                    # cached
    # the table *is* the pickled form: the clone arrives holding it, with
    # no node object on the wire, and builds nodes when root is first read
    blob = pickle.dumps(tree)
    assert b"Leaf" not in blob and b"Split" not in blob
    clone = pickle.loads(blob)
    assert clone._root is None
    assert clone.compiled().structure_digest == first.structure_digest
    assert (clone.n_nodes, clone.n_leaves, clone.depth) == \
        (first.n_nodes, first.n_leaves, first.max_depth)
    assert clone._root is None                         # answered by the table
    assert clone.structurally_equal(tree)
    # invalidate_compiled() drops the table: the (mutated) nodes are the
    # only truth, for the measures and for the next compile
    kept = clone.compiled()
    clone.root.children[0] = Leaf(
        label=0, n_records=1, class_counts=np.array([1, 0]), depth=1)
    assert clone.n_nodes == first.n_nodes              # stale until told
    clone.invalidate_compiled()
    assert clone._compiled is None
    assert clone.n_nodes == sum(1 for _ in clone.nodes()) < first.n_nodes
    assert clone.compiled() is not kept
    assert clone.compiled().n_nodes == clone.n_nodes
    tree.invalidate_compiled()
    assert tree.compiled() is not first
    assert tree.compiled().structure_digest == first.structure_digest


def test_predict_proba_columns_validates_width():
    """Regression: a wrong-width column list must raise a clear
    ValueError (it used to index garbage or die with an IndexError)."""
    tree = _golden_tree(GOLDEN[0])
    too_few = [np.zeros(4)] * (len(tree.schema) - 1)
    with pytest.raises(ValueError, match="columns"):
        predict_proba_columns(tree, too_few)
    with pytest.raises(ValueError, match="columns"):
        predict_columns(tree, too_few)


def test_apply_validates_matrix_shape():
    compiled = compile_tree(_golden_tree(GOLDEN[0]))
    with pytest.raises(ValueError, match="matrix"):
        compiled.apply(np.zeros(8))
    with pytest.raises(ValueError, match="attribute columns"):
        compiled.apply(np.zeros((8, len(compiled.schema) + 2)))


def test_single_leaf_tree():
    schema = Schema(
        attributes=(AttributeSpec("x", "continuous"),), n_classes=2)
    tree = DecisionTree(schema=schema, root=Leaf(
        label=1, n_records=5,
        class_counts=np.array([1, 4], dtype=np.int64), depth=0))
    compiled = compile_tree(tree)
    np.testing.assert_array_equal(
        compiled.predict_columns([np.array([0.0, 9.9])]), [1, 1])
    np.testing.assert_array_equal(
        compiled.predict_proba_columns([np.array([3.0])]),
        [[0.2, 0.8]])
    assert compiled.to_tree().structurally_equal(tree)


def test_compiled_agrees_on_fresh_paper_trees():
    """Beyond the pinned fixtures: freshly induced trees on a mixed
    continuous/categorical schema agree across both predictors."""
    from repro.baselines import induce_serial

    for fn, seed in [("F2", 0), ("F5", 3), ("F3", 1)]:
        train = paper_dataset(3000, fn, seed=seed)
        test = paper_dataset(700, fn, seed=seed + 100)
        tree = induce_serial(train)
        np.testing.assert_array_equal(
            predict_columns(tree, test.columns),
            predict_columns_recursive(tree, test.columns),
        )
        assert np.array_equal(
            predict_proba_columns(tree, test.columns),
            predict_proba_columns_recursive(tree, test.columns),
        )


# ----------------------------------------------------------------------
# the table is the stored form: generated round trips, deep trees
# ----------------------------------------------------------------------

_GEN_SCHEMA = Schema(attributes=(
    AttributeSpec("x", "continuous"),
    AttributeSpec("g", "categorical", n_values=5),
    AttributeSpec("y", "continuous"),
    AttributeSpec("h", "categorical", n_values=3),
), n_classes=3)
_GEN_CATEGORICAL = (1, 3)


@st.composite
def _generated_trees(draw, max_depth: int = 4):
    """Arbitrary well-formed trees over ``_GEN_SCHEMA``: single leaves,
    continuous and binary-subset splits, multiway nodes with absent codes
    (``-1`` slots), empty children (all-zero counts), mixed fan-out."""

    def node(depth: int):
        counts = np.array(draw(st.lists(st.integers(0, 9), min_size=3,
                                        max_size=3)), dtype=np.int64)
        stats = dict(n_records=int(counts.sum()), class_counts=counts,
                     depth=depth)
        kind = "leaf" if depth == max_depth else draw(st.sampled_from(
            ["leaf", "leaf", "continuous", "multiway", "subset"]))
        if kind == "leaf":
            return Leaf(label=draw(st.integers(0, 2)), **stats)
        if kind == "continuous":
            return ContinuousSplit(
                attr_index=draw(st.sampled_from((0, 2))),
                threshold=draw(st.floats(-1e6, 1e6, allow_nan=False)),
                children=[node(depth + 1), node(depth + 1)], **stats)
        attr = draw(st.sampled_from(_GEN_CATEGORICAL))
        n_values = _GEN_SCHEMA[attr].n_values
        n_children = 2 if kind == "subset" \
            else draw(st.integers(1, n_values))
        # every child is some code's; the other codes go anywhere or are
        # absent from the training records at this node
        v2c = draw(st.permutations(
            list(range(n_children)) + draw(st.lists(
                st.integers(-1, n_children - 1),
                min_size=n_values - n_children,
                max_size=n_values - n_children))))
        return CategoricalSplit(
            attr_index=attr, value_to_child=np.array(v2c, dtype=np.int32),
            children=[node(depth + 1) for _ in range(n_children)],
            default_child=draw(st.integers(0, n_children - 1)), **stats)

    return DecisionTree(schema=_GEN_SCHEMA, root=node(0))


@settings(max_examples=60, deadline=None)
@given(tree=st.one_of(_generated_trees(),
                      st.integers(0, 40).map(lambda d: _chain_tree(d))))
def test_generated_trees_round_trip_through_table_and_pickle(tree):
    digest = compile_tree(tree).structure_digest
    rebuilt = compile_tree(tree).to_tree()
    assert rebuilt.structurally_equal(tree)
    assert to_dict(rebuilt) == to_dict(tree)           # incl. depths
    assert compile_tree(rebuilt).structure_digest == digest

    blob = pickle.dumps(tree)
    assert b"Leaf" not in blob and b"Split" not in blob    # no node object
    clone = pickle.loads(blob)
    assert clone.structurally_equal(tree)
    assert compile_tree(clone).structure_digest == digest
    assert (clone.n_nodes, clone.n_leaves, clone.depth) == (
        sum(1 for _ in tree.nodes()), sum(1 for _ in tree.leaves()),
        max(leaf.depth for leaf in tree.leaves()))


def _chain_from_rank_zero(comm, depth):
    return _chain_tree(depth) if comm.rank == 0 else None


def test_depth_1000_tree_survives_pickle_and_the_final_frame():
    """A node graph this deep cannot be pickled (``RecursionError`` —
    "worker result not transferable" from a process rank); the table
    can, and nothing on the way recurses."""
    from repro.runtime import run_spmd

    tree = _chain_tree(1000)
    digest = compile_tree(tree).structure_digest
    for clone in (pickle.loads(pickle.dumps(tree)),
                  run_spmd(2, _chain_from_rank_zero, args=(1000,),
                           backend="process")[0]):
        assert clone._root is None                      # table only
        assert (clone.n_nodes, clone.n_leaves, clone.depth) == \
            (2001, 1001, 1000)
        assert clone.compiled().structure_digest == digest
        assert compile_tree(clone).structure_digest == digest   # via nodes

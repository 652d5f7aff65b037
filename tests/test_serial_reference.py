"""Serial golden-reference inducer: known trees, config knobs, edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import induce_serial
from repro.core import InductionConfig
from repro.datagen import generate_quest, make_dataset
from repro.tree import accuracy, summarize, to_dict, to_text
from repro.tree.compile import KIND_CATEGORICAL


def _root(tree) -> dict:
    """The root node in the nested model-file form."""
    return to_dict(tree)["root"]


def test_xor_tree_exact_structure(xor_dataset):
    tree = induce_serial(xor_dataset)
    assert accuracy(tree, xor_dataset) == 1.0
    # XOR needs depth 2 with threshold splits at 1.0
    assert _root(tree)["type"] == "continuous"
    assert _root(tree)["threshold"] == 1.0
    assert tree.depth == 2
    assert tree.n_leaves == 4


def test_pure_dataset_single_leaf():
    ds = make_dataset(continuous={"x": [1.0, 2.0, 3.0]}, labels=[1, 1, 1])
    root = _root(induce_serial(ds))
    assert (root["type"], root["label"], root["n_records"]) == ("leaf", 1, 3)


def test_constant_attributes_become_leaf():
    """Impure but unsplittable: every attribute constant."""
    ds = make_dataset(
        continuous={"x": [5.0] * 6},
        categorical={"g": ([2] * 6, 3)},
        labels=[0, 1, 0, 1, 0, 0],
    )
    root = _root(induce_serial(ds))
    assert (root["type"], root["label"]) == ("leaf", 0)  # majority


def test_majority_label_tie_prefers_lower_class():
    ds = make_dataset(continuous={"x": [1.0, 1.0]}, labels=[1, 0])
    root = _root(induce_serial(ds))
    assert (root["type"], root["label"]) == ("leaf", 0)


def test_max_depth_zero_forces_leaf(tiny_quest):
    tree = induce_serial(tiny_quest, InductionConfig(max_depth=0))
    assert tree.n_nodes == 1


def test_max_depth_bounds_tree(tiny_quest):
    for d in (1, 2, 4):
        tree = induce_serial(tiny_quest, InductionConfig(max_depth=d))
        assert tree.depth <= d


def test_min_split_records(tiny_quest):
    tree = induce_serial(tiny_quest, InductionConfig(min_split_records=100))
    table = tree.compiled()
    assert table.n_records[table.fanout > 0].min() >= 100


def test_min_improvement_prunes_weak_splits(tiny_quest):
    loose = induce_serial(tiny_quest)
    strict = induce_serial(tiny_quest, InductionConfig(min_improvement=0.05))
    assert strict.n_nodes < loose.n_nodes


def test_continuous_split_threshold_is_a_data_value():
    ds = make_dataset(
        continuous={"x": [1.0, 2.0, 3.0, 4.0]}, labels=[0, 0, 1, 1]
    )
    root = _root(induce_serial(ds))
    assert root["threshold"] == 3.0  # "A < v for some v in its domain"
    assert [child["label"] for child in root["children"]] == [0, 1]


def test_duplicates_never_split_inside_a_run():
    ds = make_dataset(
        continuous={"x": [1.0, 1.0, 1.0, 2.0]}, labels=[0, 1, 0, 1]
    )
    assert _root(induce_serial(ds))["threshold"] == 2.0


def test_only_categorical_attributes():
    ds = make_dataset(
        categorical={"g": ([0, 0, 1, 1, 2, 2], 3)},
        labels=[0, 0, 1, 1, 0, 0],
    )
    tree = induce_serial(ds)
    root = _root(tree)
    assert (root["type"], root["attr_index"]) == ("categorical", 0)
    assert len(root["children"]) == 3
    assert accuracy(tree, ds) == 1.0


def test_categorical_children_ascending_value_order():
    ds = make_dataset(
        categorical={"g": ([2, 0, 2, 0], 4)},  # value 1, 3 unseen
        labels=[1, 0, 1, 0],
    )
    assert _root(induce_serial(ds))["value_to_child"] == [0, -1, 1, -1]


def test_binary_subset_config():
    ds = generate_quest(400, "F3", seed=1)
    tree = induce_serial(
        ds, InductionConfig(categorical_binary_subsets=True)
    )
    table = tree.compiled()
    assert set(table.n_children[table.kind == KIND_CATEGORICAL]) <= {2}


def test_entropy_criterion_differs_from_gini(tiny_quest):
    g = induce_serial(tiny_quest, InductionConfig(criterion="gini"))
    e = induce_serial(tiny_quest, InductionConfig(criterion="entropy"))
    # Different criteria generally pick different trees on real data
    assert not g.structurally_equal(e) or summarize(g) == summarize(e)


def test_empty_dataset_raises():
    ds = make_dataset(continuous={"x": []}, labels=[])
    with pytest.raises(ValueError):
        induce_serial(ds)


def test_config_validation():
    with pytest.raises(ValueError):
        InductionConfig(max_depth=-1)
    with pytest.raises(ValueError):
        InductionConfig(min_split_records=1)
    with pytest.raises(ValueError):
        InductionConfig(min_improvement=-0.1)
    with pytest.raises(ValueError):
        InductionConfig(criterion="mse")
    with pytest.raises(ValueError):
        InductionConfig(split_mode="histogram")


def test_deep_tree_no_recursion_limit():
    """A pathological staircase forces a deep tree; must not blow the
    Python recursion limit (the builder is iterative)."""
    n = 600
    x = np.arange(n, dtype=np.float64)
    labels = (np.arange(n) % 2).tolist()
    ds = make_dataset(continuous={"x": x.tolist()}, labels=labels)
    tree = induce_serial(ds)
    assert accuracy(tree, ds) == 1.0
    assert tree.n_leaves == n  # each record isolated


def test_tree_text_is_stable(xor_dataset):
    t1 = to_text(induce_serial(xor_dataset))
    t2 = to_text(induce_serial(xor_dataset))
    assert t1 == t2

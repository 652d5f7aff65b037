"""Decision-tree model: routing, prediction, export, stats, pruning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import make_dataset
from repro.tree import (
    DecisionTree,
    accuracy,
    confusion_matrix,
    from_dict,
    prune_pessimistic,
    summarize,
    to_dict,
    to_text,
)

_XG = {"n_classes": 2, "attributes": [
    {"name": "x", "kind": "continuous", "n_values": 0},
    {"name": "g", "kind": "categorical", "n_values": 3}]}


def _leaf(label, n=5, c=2, depth=1, counts=None):
    if counts is None:
        counts = [0] * c
        counts[label] = n
    return {"type": "leaf", "label": label, "n_records": n,
            "class_counts": counts, "depth": depth}


def _x_split(children, counts, threshold=1.0):
    return {"type": "continuous", "attr_index": 0, "threshold": threshold,
            "children": children, "n_records": sum(counts),
            "class_counts": counts, "depth": 0}


def small_payload_dict() -> dict:
    """x < 2 → class 0; else split on g: value 0 → class 0, value 1 →
    1 (the small tree's model-file dict, a fresh copy)."""
    cat = {"type": "categorical", "attr_index": 1,
           "value_to_child": [0, 1, -1], "default_child": 1,
           "children": [_leaf(0, 4, depth=2), _leaf(1, 6, depth=2)],
           "n_records": 10, "class_counts": [4, 6], "depth": 1}
    return {"schema": _XG,
            "root": _x_split([_leaf(0, 10), cat], [14, 6], threshold=2.0)}




@pytest.fixture
def small_payload():
    return small_payload_dict()


@pytest.fixture
def small_tree(small_payload):
    return from_dict(small_payload)


def test_continuous_routing(small_tree):
    # node ids are breadth-first: 1 the x < 2 leaf, 2 the g split
    leaf_of = small_tree.compiled().apply(
        np.array([[1.9, 0], [2.0, 0], [5.0, 1]]))
    np.testing.assert_array_equal(leaf_of, [1, 3, 4])
    assert list(small_tree.compiled().kind[:3]) == [1, 0, 2]


def test_categorical_routing_with_default(small_tree):
    # value 2 unseen -> default child 1; out-of-range codes clip to the
    # last code, so they default too
    leaf_of = small_tree.compiled().apply(
        np.column_stack([np.full(4, 5.0), [0, 1, 2, 7]]))
    np.testing.assert_array_equal(leaf_of, [3, 4, 4, 4])


def test_predict_columns(small_tree):
    x = np.array([0.0, 3.0, 3.0, 9.0])
    g = np.array([0, 0, 1, 2], dtype=np.int32)
    np.testing.assert_array_equal(
        small_tree.predict_columns([x, g]), [0, 0, 1, 1]
    )


def test_predict_empty(small_tree):
    out = small_tree.predict_columns(
        [np.array([]), np.array([], dtype=np.int32)])
    assert len(out) == 0


def test_predict_wrong_width_raises(small_tree):
    with pytest.raises(ValueError):
        small_tree.predict_columns([np.array([1.0])])


def test_predict_proba_rows_sum_to_one(small_tree):
    proba = small_tree.compiled().predict_proba_columns(
        [np.array([0.0, 5.0]), np.array([0, 1], dtype=np.int32)])
    np.testing.assert_allclose(proba.sum(axis=1), 1.0)
    assert proba[0, 0] == 1.0


def test_tree_measures(small_tree):
    assert small_tree.n_nodes == 5
    assert small_tree.n_leaves == 3
    assert small_tree.depth == 2
    s = summarize(small_tree)
    assert s.n_continuous_splits == 1
    assert s.n_categorical_splits == 1
    assert "5 nodes" in str(s)


def test_structural_equality_detects_differences(small_tree,
                                                 small_payload):
    other = from_dict(to_dict(small_tree))
    assert small_tree.structurally_equal(other)
    small_payload["root"]["threshold"] = 2.5
    assert not small_tree.structurally_equal(from_dict(small_payload))
    small_payload["root"]["threshold"] = 2.0
    small_payload["root"]["children"][0]["label"] = 1
    assert not small_tree.structurally_equal(from_dict(small_payload))
    small_payload["root"]["children"][0]["label"] = 0
    # the default child is part of the tree: it routes unseen codes
    small_payload["root"]["children"][1]["default_child"] = 0
    assert not small_tree.structurally_equal(from_dict(small_payload))


def test_leaf_vs_split_never_equal(small_tree):
    leaf = from_dict({"schema": _XG, "root": _leaf(0, 20, depth=0,
                                                   counts=[14, 6])})
    assert not small_tree.structurally_equal(leaf)
    assert not leaf.structurally_equal(small_tree)


def test_export_roundtrip(small_tree, small_payload):
    payload = to_dict(small_tree)
    assert payload == small_payload
    back = from_dict(payload)
    assert back.structurally_equal(small_tree)
    assert back.schema == small_tree.schema
    assert payload["root"]["children"][1]["default_child"] == 1


def test_to_text_mentions_attributes(small_tree):
    text = to_text(small_tree)
    assert "x < 2" in text
    assert "split on g" in text
    assert "class 1" in text
    shallow = to_text(small_tree, max_depth=0)
    assert "split on g" not in shallow


def test_accuracy_and_confusion(small_tree):
    ds = make_dataset(
        continuous={"x": [0.0, 3.0, 3.0]},
        categorical={"g": ([0, 0, 1], 3)},
        labels=[0, 0, 0],
    )
    # order matters: make_dataset puts continuous attrs first, like the tree
    assert accuracy(small_tree, ds) == pytest.approx(2 / 3)
    cm = confusion_matrix(small_tree, ds)
    assert cm[0, 0] == 2 and cm[0, 1] == 1
    assert cm.sum() == 3


def test_accuracy_empty_dataset_is_nan(small_tree):
    ds = make_dataset(
        continuous={"x": []}, categorical={"g": ([], 3)}, labels=[]
    )
    assert np.isnan(accuracy(small_tree, ds))


def test_tree_requires_root(small_tree):
    with pytest.raises(ValueError):
        DecisionTree(small_tree.schema, None)


# ---------------------------------------------------------------------------
# the model file is outside input: from_dict checks what the kernel indexes
# ---------------------------------------------------------------------------

#: case → (path of child indices to the edited node, its new entries;
#: ``None`` deletes the entry).  Each loads at the parent of the reader
#: that checks it and then fails, or misroutes, at the first prediction.
MALFORMED = {
    "attr-out-of-range": ((), {"attr_index": 7}),
    "attr-of-the-wrong-kind": ((), {"attr_index": 1}),
    "continuous-with-three-children": ((), {"children": [
        _leaf(0), _leaf(0), _leaf(0)]}),
    "ordinal-past-the-children": ((1,), {"value_to_child": [0, 1, 5]}),
    "ordinal-below-minus-one": ((1,), {"value_to_child": [0, 1, -2]}),
    "value-to-child-too-short": ((1,), {"value_to_child": [0, 1]}),
    "child-without-a-code": ((1,), {"value_to_child": [0, 0, -1]}),
    "default-child-out-of-range": ((1,), {"default_child": 2}),
    "class-counts-too-long": ((1, 0), {"class_counts": [4, 0, 0]}),
    "label-out-of-range": ((1, 0), {"label": 2}),
    "missing-entry": ((1,), {"children": None}),
}


def malformed_model(case: str):
    """The small tree's dict broken as ``case`` says (or not a tree at
    all: ``not-a-dict`` / ``no-schema``)."""
    payload = small_payload_dict()
    if case == "not-a-dict":
        return [1, 2]
    if case == "no-schema":
        return {"root": payload["root"]}
    path, entries = MALFORMED[case]
    node = payload["root"]
    for child in path:
        node = node["children"][child]
    for key, value in entries.items():
        if value is None:
            del node[key]
        else:
            node[key] = value
    return payload


MALFORMED_CASES = ["not-a-dict", "no-schema", *MALFORMED]


@pytest.mark.parametrize("case", MALFORMED_CASES)
def test_from_dict_rejects_malformed_models(case):
    with pytest.raises(ValueError):
        from_dict(malformed_model(case))


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def _one_split(children, counts):
    return from_dict({"schema": {"n_classes": 2, "attributes": [
        {"name": "x", "kind": "continuous", "n_values": 0}]},
        "root": _x_split(children, counts)})


def test_prune_collapses_useless_split():
    """A split whose children predict the same class is pruned."""
    pruned = prune_pessimistic(_one_split(
        [_leaf(0, 5), _leaf(0, 5, counts=[4, 1])], [9, 1]))
    assert to_dict(pruned)["root"] == _leaf(0, 10, depth=0, counts=[9, 1])


def test_prune_keeps_informative_split():
    tree = _one_split([_leaf(0, 10), _leaf(1, 10)], [10, 10])
    pruned = prune_pessimistic(tree)
    assert pruned.n_nodes == 3
    # and the original is untouched
    assert tree.n_nodes == 3


def test_prune_never_increases_nodes(tiny_quest):
    from repro.baselines import induce_serial

    tree = induce_serial(tiny_quest)
    pruned = prune_pessimistic(tree)
    assert pruned.n_nodes <= tree.n_nodes
    # pruned tree still predicts valid labels
    preds = pruned.predict(tiny_quest)
    assert set(np.unique(preds)) <= {0, 1}


#: blake2b-8 of ``json.dumps(to_dict(prune_pessimistic(tree)),
#: sort_keys=True)`` for depth-8 serial fits of 2 000 records (seed 1,
#: 5 % noise) — computed by the pointer-node pruner this one replaced
_PRUNED = {"F2": (426, 27, "c4ea9d3b366641f1"),
           "F5": (473, 71, "4b0cfc71c33c95aa"),
           "F7": (560, 37, "6af3700f67ee67ac")}


@pytest.mark.parametrize("fn", sorted(_PRUNED))
def test_pruned_trees_are_pinned(fn):
    import hashlib
    import json

    from repro import InductionConfig, induce_serial, paper_dataset

    tree = induce_serial(paper_dataset(2000, fn, seed=1, perturbation=0.05),
                         InductionConfig(max_depth=8))
    pruned = prune_pessimistic(tree)
    blob = json.dumps(to_dict(pruned), sort_keys=True).encode()
    assert (tree.n_nodes, pruned.n_nodes,
            hashlib.blake2b(blob, digest_size=8).hexdigest()) == _PRUNED[fn]

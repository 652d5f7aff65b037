"""Decision-tree model: routing, prediction, export, stats, pruning."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.datagen import make_dataset
from repro.tree import (
    DecisionTree,
    accuracy,
    confusion_matrix,
    from_dict,
    from_npz,
    prune_pessimistic,
    summarize,
    to_dict,
    to_npz,
    to_text,
)
from repro.tree.export import COLUMNS

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


def _set(column, index, value):
    def edit(cols):
        cols[column] = cols[column].copy()
        cols[column][index] = value
    return edit


def _shorter_value_to_child(cols):
    cols["fanout"] = cols["fanout"].copy()
    cols["fanout"][2] = 2
    cols["slot_child"] = cols["slot_child"][:4]


def _root_with_three_children(cols):
    cols["n_children"] = cols["n_children"].copy()
    cols["n_children"][[0, 2]] = [3, 1]


def _wider_class_counts(cols):
    cols["class_counts"] = np.hstack(
        [cols["class_counts"], np.zeros((5, 1), cols["class_counts"].dtype)])


def _leaf_with_a_slot(cols):
    cols["fanout"] = cols["fanout"].copy()
    cols["fanout"][1] = 1
    cols["slot_child"] = np.insert(cols["slot_child"], 2, 0)


def _split_numbered_before_its_parent(cols):
    """Root a leaf and node 1 the x split: node 1 is then its own first
    child — a cycle no nested payload can spell."""
    for column, row0, row1 in (("kind", 0, 1), ("feature", -1, 0),
                               ("threshold", np.nan, 2.0),
                               ("leaf_label", 0, -1), ("n_children", 0, 2),
                               ("fanout", 0, 2)):
        cols[column] = cols[column].copy()
        cols[column][:2] = [row0, row1]


#: a format-2 ``model.npz`` twin of every MALFORMED case, plus the
#: structure a flat file must also prove: case → (edit of the small
#: tree's primary columns, the refusal's words).  Small tree rows: 0 the
#: x split, 1 a leaf, 2 the g split (slots 2–4: ordinals 0, 1, −1;
#: default child 1), 3 and 4 its leaves.
COLUMN_MALFORMED = {
    "attr-out-of-range": (_set("feature", 0, 7), "node 0: attr_index 7"),
    "attr-of-the-wrong-kind": (_set("feature", 0, 1),
                               "node 0: attr_index 1 is not a continuous"),
    "continuous-with-three-children": (_root_with_three_children,
                                       "node 0: needs exactly 2 children"),
    "ordinal-past-the-children": (_set("slot_child", 4, 5),
                                  "node 2: value_to_child ordinals"),
    "ordinal-below-minus-one": (_set("slot_child", 4, -2),
                                "node 2: value_to_child ordinals"),
    "value-to-child-too-short": (_shorter_value_to_child,
                                 "node 2: value_to_child needs 3 entries"),
    "child-without-a-code": (_set("slot_child", 3, 0),
                             "node 2: value_to_child must name each"),
    "default-child-out-of-range": (_set("default_child", 2, 2),
                                   "node 2: default_child out of range"),
    "class-counts-too-long": (_wider_class_counts,
                              "class_counts must have 2 entries"),
    "label-out-of-range": (_set("leaf_label", 3, 2),
                           "node 3: label out of range"),
    "missing-entry": (lambda cols: cols.pop("n_children"),
                      "must hold the schema and the columns"),
    "child-counts-do-not-sum": (_set("n_children", 2, 3),
                                "child counts sum to 5"),
    "fanouts-do-not-sum": (_set("fanout", 2, 4), "fanouts sum to 6"),
    "leaf-with-a-slot": (_leaf_with_a_slot,
                         "node 1: a leaf has no children and no slots"),
    "leaf-with-a-threshold": (_set("threshold", 1, 0.5),
                              "node 1: carries a field"),
    "split-before-its-parent": (_split_numbered_before_its_parent,
                                "node 1: its children must follow it"),
    "object-array": (lambda cols: cols.update(threshold=np.array(
        cols["threshold"].tolist(), dtype=object)), "Object arrays"),
    "schema-not-json": (lambda cols: cols.update(schema=np.array("{x")),
                        "malformed model.npz"),
}


def test_every_dict_case_has_a_column_twin():
    assert set(MALFORMED) <= set(COLUMN_MALFORMED)


def malformed_npz(case: str) -> bytes:
    """The small tree's ``model.npz`` with ``case``'s edit applied."""
    with np.load(io.BytesIO(to_npz(from_dict(small_payload_dict())))) as z:
        cols = {name: z[name] for name in z.files}
    COLUMN_MALFORMED[case][0](cols)
    buf = io.BytesIO()
    np.savez(buf, **cols)
    return buf.getvalue()


@pytest.mark.parametrize("case", sorted(COLUMN_MALFORMED))
def test_from_npz_names_the_malformed_column(case):
    with pytest.raises(ValueError, match=COLUMN_MALFORMED[case][1]):
        from_npz(malformed_npz(case))


def test_npz_round_trip_keeps_the_table(small_tree):
    back = from_npz(to_npz(small_tree))
    assert back.structurally_equal(small_tree)
    assert back.compiled().structure_digest \
        == small_tree.compiled().structure_digest
    with np.load(io.BytesIO(to_npz(small_tree)), allow_pickle=False) as z:
        assert sorted(z.files) == sorted(("schema", *COLUMNS))


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

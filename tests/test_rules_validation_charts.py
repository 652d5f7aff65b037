"""Rule extraction, ASCII charts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import ascii_chart
from repro.baselines import induce_serial
from repro.core import InductionConfig
from repro.datagen import make_dataset, paper_dataset
from repro.tree import extract_rules, rules_to_text

# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def quest_tree():
    return induce_serial(paper_dataset(1200, "F2", seed=0),
                         InductionConfig(max_depth=5))


def test_rules_partition_the_input(quest_tree):
    ds = paper_dataset(1200, "F2", seed=0)
    rules = extract_rules(quest_tree)
    assert len(rules) == quest_tree.n_leaves
    cover = np.zeros(ds.n_records, dtype=int)
    for rule in rules:
        cover += rule.matches(ds.columns)
    assert np.all(cover == 1)  # exactly one rule per record


def test_rules_agree_with_tree_predictions(quest_tree):
    test = paper_dataset(500, "F2", seed=9)
    preds = quest_tree.predict(test)
    rule_preds = np.full(test.n_records, -1, dtype=np.int64)
    for rule in extract_rules(quest_tree):
        rule_preds[rule.matches(test.columns)] = rule.label
    np.testing.assert_array_equal(rule_preds, preds)


def test_rule_support_sums_to_n(quest_tree):
    rules = extract_rules(quest_tree)
    assert sum(r.n_records for r in rules) == 1200
    assert all(0 < r.confidence <= 1 for r in rules)


def test_conditions_merge_intervals():
    """Two splits on the same attribute collapse into one interval."""
    ds = make_dataset(
        continuous={"x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
        labels=[0, 1, 1, 1, 0, 0],
    )
    rules = extract_rules(induce_serial(ds))
    for rule in rules:
        assert len(rule.conditions) <= 1  # single attribute → one interval


def test_categorical_rule_conditions():
    ds = make_dataset(
        categorical={"g": ([0, 0, 1, 1, 2, 2], 3)},
        labels=[0, 0, 1, 1, 0, 0],
    )
    rules = extract_rules(induce_serial(ds))
    allowed_sets = sorted(tuple(r.conditions[0].allowed) for r in rules)
    assert allowed_sets == [(0,), (1,), (2,)]


def test_rules_to_text_output(quest_tree):
    text = rules_to_text(quest_tree, min_records=50)
    assert text.startswith("R0: IF ")
    assert "THEN class" in text
    assert "confidence=" in text
    # sorted by support: first rule has the largest n
    first_n = int(text.splitlines()[0].split("n=")[1].split(",")[0])
    for line in text.splitlines()[1:]:
        assert int(line.split("n=")[1].split(",")[0]) <= first_n


def test_rules_route_training_absent_codes_like_predict():
    """A code absent from a node's training records goes to the default
    child in ``predict``; its rule allows it there, so every record still
    matches exactly one rule, with the predicted label."""
    ds = make_dataset(categorical={"g": ([0, 0, 1, 1], 3)},
                      labels=[0, 0, 1, 1])
    tree = induce_serial(ds)
    g = np.array([0, 1, 2], dtype=np.int32)
    preds = tree.predict_columns([g])
    np.testing.assert_array_equal(preds, [0, 1, 0])
    rule_labels = np.full(3, -1, dtype=np.int64)
    cover = np.zeros(3, dtype=int)
    for rule in extract_rules(tree):
        hit = rule.matches([g])
        rule_labels[hit] = rule.label
        cover += hit
    np.testing.assert_array_equal(cover, [1, 1, 1])
    np.testing.assert_array_equal(rule_labels, preds)


def test_single_leaf_tree_rule():
    ds = make_dataset(continuous={"x": [1.0, 2.0]}, labels=[1, 1])
    rules = extract_rules(induce_serial(ds))
    assert len(rules) == 1
    assert rules[0].conditions == ()
    assert "IF TRUE THEN class 1" in rules_to_text(induce_serial(ds))


# ---------------------------------------------------------------------------
# ascii charts
# ---------------------------------------------------------------------------

def test_chart_contains_markers_and_legend():
    out = ascii_chart(
        [2, 4, 8], {"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]},
        title="T", width=40, height=10,
    )
    assert out.splitlines()[0] == "T"
    assert "o = a" in out and "x = b" in out
    assert out.count("o") >= 3


def test_chart_log_axes():
    out = ascii_chart([2, 4, 8, 16], {"s": [10.0, 100.0, 1000.0, 10000.0]},
                      logx=True, logy=True)
    assert "10000" in out
    assert "2" in out.splitlines()[-2]


def test_chart_validation():
    with pytest.raises(ValueError):
        ascii_chart([1, 2], {})
    with pytest.raises(ValueError):
        ascii_chart([1, 2], {"a": [1.0]})


def test_chart_constant_series():
    out = ascii_chart([1, 2, 3], {"flat": [5.0, 5.0, 5.0]})
    assert "flat" in out  # degenerate span must not crash

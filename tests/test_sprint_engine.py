"""The genuine serial SPRINT engine (``tests/sprint_oracle.py``):
presort-once splitting, real multi-pass hash probing under a memory
budget — the measured oracle of ``SerialSPRINT``'s §2 I/O model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SerialSPRINT, induce_serial
from repro.core import InductionConfig
from repro.datagen import generate_quest, make_dataset, random_dataset

from tests.conftest import assert_trees_equal
from tests.sprint_oracle import SprintClassifier


def test_unbounded_budget_matches_reference():
    ds = generate_quest(800, "F2", seed=1)
    tree, stats = SprintClassifier().fit(ds)
    assert_trees_equal(tree, induce_serial(ds), "(sprint engine)")
    assert stats.extra_io_entries == 0
    assert stats.peak_hash_entries == 800  # root table spans the whole set


@pytest.mark.parametrize("budget", [1, 7, 100, 10_000])
def test_any_budget_same_tree(budget):
    ds = generate_quest(400, "F3", seed=2)
    ref = induce_serial(ds)
    tree, stats = SprintClassifier(memory_budget_entries=budget).fit(ds)
    assert_trees_equal(tree, ref, f"(budget={budget})")
    assert stats.peak_hash_entries <= budget


def test_pass_count_matches_analytical_model():
    """The real engine's measured passes equal the SerialSPRINT cost
    model's prediction (they describe the same algorithm)."""
    ds = generate_quest(600, "F2", seed=3)
    budget = 64
    _, measured = SprintClassifier(memory_budget_entries=budget).fit(ds)
    _, modeled = SerialSPRINT(memory_budget_entries=budget).fit(ds)
    assert measured.passes == modeled.total_passes
    assert measured.extra_io_entries == modeled.total_extra_io


def test_extra_io_monotone_in_budget_pressure():
    ds = generate_quest(500, "F2", seed=4)
    ios = []
    for budget in (10_000, 100, 25):
        _, stats = SprintClassifier(memory_budget_entries=budget).fit(ds)
        ios.append(stats.extra_io_entries)
    assert ios[0] == 0
    assert ios[0] <= ios[1] <= ios[2]
    assert ios[2] > 0


def test_per_level_accounting_sums():
    ds = generate_quest(300, "F2", seed=5)
    _, stats = SprintClassifier(memory_budget_entries=40).fit(ds)
    assert sum(p for _, p, _ in stats.per_level) == stats.passes
    assert sum(x for _, _, x in stats.per_level) == stats.extra_io_entries
    levels = [lv for lv, _, _ in stats.per_level]
    assert levels == sorted(levels)


def test_config_knobs_respected():
    ds = generate_quest(400, "F6", seed=6)
    config = InductionConfig(max_depth=3, min_split_records=20,
                             criterion="entropy")
    tree, _ = SprintClassifier(config).fit(ds)
    assert_trees_equal(tree, induce_serial(ds, config), "(config)")
    assert tree.depth <= 3


def test_categorical_only_dataset():
    ds = make_dataset(
        categorical={"g": ([0, 0, 1, 1, 2, 2], 3),
                     "h": ([0, 1, 0, 1, 0, 1], 2)},
        labels=[0, 0, 1, 1, 0, 0],
    )
    tree, _ = SprintClassifier(memory_budget_entries=2).fit(ds)
    assert_trees_equal(tree, induce_serial(ds), "(categorical only)")


def test_empty_dataset_raises():
    ds = make_dataset(continuous={"x": []}, labels=[])
    with pytest.raises(ValueError):
        SprintClassifier().fit(ds)


def test_invalid_budget_rejected():
    with pytest.raises(ValueError):
        SprintClassifier(memory_budget_entries=0)


@settings(deadline=None, max_examples=15)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 120),
    budget=st.one_of(st.none(), st.integers(1, 50)),
    dup=st.booleans(),
)
def test_property_engine_equals_reference(seed, n, budget, dup):
    ds = random_dataset(np.random.default_rng(seed), n, duplicate_heavy=dup)
    ref = induce_serial(ds)
    tree, _ = SprintClassifier(memory_budget_entries=budget).fit(ds)
    assert_trees_equal(tree, ref, f"(hypothesis seed={seed})")

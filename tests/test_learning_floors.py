"""Learning-quality floors: the Quest functions are learned, and the two
tree-shaping options (categorical split form, criterion) trade as
documented.  Deterministic — seeded data, serial reference trees (which
every parallel fit reproduces exactly)."""

from __future__ import annotations

import pytest

from repro import InductionConfig, accuracy, induce_serial, paper_dataset
from repro.datagen import generate_quest
from repro.datagen.quest import FUNCTION_NAMES
from repro.tree import prune_mdl


@pytest.mark.parametrize("fn", FUNCTION_NAMES)
def test_quest_function_learned_through_noise(fn):
    train = generate_quest(8_000, fn, seed=1, perturbation=0.05)
    test = generate_quest(2_000, fn, seed=77)
    acc = accuracy(prune_mdl(induce_serial(train)), test)
    majority = max(test.class_counts()) / test.n_records
    assert acc > 0.90, f"{fn}: accuracy too low ({acc:.3f})"
    # F8/F10 are so imbalanced under the standard attribute domains
    # (majority > 0.95) that matching the baseline is the right answer
    if majority < 0.95:
        assert acc > majority + 0.02, f"{fn}: no learning over baseline"


def test_subset_splits_fragment_less_than_multiway():
    """Footnote 1: on F3 + 2 % noise, multiway splits fragment on the
    20-valued ``car``; binary subsets keep far fewer leaves at about the
    same accuracy."""
    train = paper_dataset(4_000, "F3", seed=1, perturbation=0.02)
    test = paper_dataset(1_000, "F3", seed=99)
    multi = induce_serial(train)
    subset = induce_serial(
        train, InductionConfig(categorical_binary_subsets=True))
    assert subset.n_leaves < multi.n_leaves
    assert accuracy(subset, test) > accuracy(multi, test) - 0.02


def test_gini_and_entropy_both_learn_f6():
    train = paper_dataset(10_000, "F6", seed=2)
    test = paper_dataset(2_500, "F6", seed=98)
    for criterion in ("gini", "entropy"):
        tree = induce_serial(train, InductionConfig(criterion=criterion))
        assert accuracy(tree, test) > 0.85, criterion

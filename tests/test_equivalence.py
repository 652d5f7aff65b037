"""THE correctness oracle: ScalParC ≡ serial reference ≡ parallel SPRINT.

The paper's algorithm is a *parallel formulation* of the same induction
process — so for any dataset, any configuration, and any processor count,
all three implementations must produce bit-identical trees.  These tests
sweep datasets (synthetic Quest workloads, adversarial random data,
duplicate-heavy columns), configurations (criteria, depth caps, subset
splits, blocked updates, one-pair update rounds) and processor counts.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ParallelSPRINT, induce_serial
from repro.core import InductionConfig, ScalParC
from repro.datagen import generate_quest, make_dataset, random_dataset
from repro.hashing import DistributedNodeTable

from tests.conftest import assert_trees_equal

PROC_COUNTS = [1, 2, 3, 4, 7, 8]


def _check_all_p(dataset, config=None, procs=PROC_COUNTS):
    ref = induce_serial(dataset, config)
    for p in procs:
        got = ScalParC(n_processors=p, config=config, machine=None).fit(dataset)
        assert_trees_equal(got.tree, ref, f"(scalparc p={p})")
    return ref


# ---------------------------------------------------------------------------
# quest workloads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fn", ["F1", "F2", "F3", "F6", "F7"])
def test_quest_functions_equal_across_p(fn):
    ds = generate_quest(600, fn, seed=3)
    _check_all_p(ds, procs=[1, 4, 7])


def test_quest_with_noise_equal_across_p():
    ds = generate_quest(500, "F2", seed=5, perturbation=0.2)
    _check_all_p(ds, procs=[2, 5])


def test_paper_profile_equal_across_p():
    from repro.datagen import paper_dataset

    ds = paper_dataset(800, "F2", seed=1)
    _check_all_p(ds, procs=[3, 8])


# ---------------------------------------------------------------------------
# adversarial random data
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_random_datasets_equal_across_p(seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, int(rng.integers(2, 250)),
                        duplicate_heavy=bool(seed % 2))
    _check_all_p(ds, procs=[2, 4, 7])


def test_single_record():
    ds = make_dataset(continuous={"x": [1.0]}, labels=[0])
    _check_all_p(ds, procs=[1, 4])


def test_two_records_opposite_labels():
    ds = make_dataset(continuous={"x": [1.0, 2.0]}, labels=[0, 1])
    ref = _check_all_p(ds, procs=[1, 2, 3])
    assert ref.n_nodes > 1


def test_fewer_records_than_processors():
    rng = np.random.default_rng(0)
    for n in (1, 3, 5):
        ds = random_dataset(rng, n)
        _check_all_p(ds, procs=[8, 16])


def test_heavy_duplicates_across_rank_boundaries():
    """Columns with ~3 distinct values force duplicate runs spanning ranks —
    the boundary-exscan validity logic must agree with the serial scan."""
    rng = np.random.default_rng(11)
    for trial in range(4):
        ds = random_dataset(rng, 150, duplicate_heavy=True)
        _check_all_p(ds, procs=[2, 3, 5, 8])


def test_all_records_identical_values():
    ds = make_dataset(
        continuous={"x": [2.0] * 20},
        categorical={"g": ([1] * 20, 3)},
        labels=[i % 2 for i in range(20)],
    )
    ref = _check_all_p(ds, procs=[1, 4])
    assert ref.n_nodes == 1  # nothing to split on


def test_wide_schema_many_attributes():
    rng = np.random.default_rng(2)
    from repro.datagen import random_schema

    schema = random_schema(rng, n_continuous=5, n_categorical=4, n_classes=3)
    ds = random_dataset(rng, 200, schema)
    _check_all_p(ds, procs=[3, 6])


# ---------------------------------------------------------------------------
# configuration sweep
# ---------------------------------------------------------------------------

#: (config, node-table update-round size or None for ⌈N/p⌉)
CONFIGS = [
    (InductionConfig(max_depth=3), None),
    (InductionConfig(min_split_records=10), None),
    (InductionConfig(min_improvement=0.01), None),
    (InductionConfig(criterion="entropy"), None),
    (InductionConfig(categorical_binary_subsets=True), None),
    (InductionConfig(categorical_binary_subsets=True,
                     subset_exhaustive_limit=2), None),
    (InductionConfig(), 7),
    (InductionConfig(max_depth=4), 1),
]


def _non_default_fields(case: tuple) -> str:
    """A case's test id: the fields it sets away from their defaults,
    then the update-round size if it sets one."""
    config, max_block = case
    default = InductionConfig()
    return ",".join([
        f"{f.name}={getattr(config, f.name)}"
        for f in dataclasses.fields(config)
        if getattr(config, f.name) != getattr(default, f.name)]
        + ([f"max_update_block={max_block}"] if max_block else []))


@pytest.mark.parametrize("case", CONFIGS, ids=_non_default_fields)
def test_config_sweep_equal_across_p(case, monkeypatch):
    config, max_block = case
    monkeypatch.setattr(DistributedNodeTable, "max_block", max_block)
    ds = generate_quest(300, "F3", seed=8)
    _check_all_p(ds, config, procs=[2, 5])


# ---------------------------------------------------------------------------
# parallel SPRINT produces the same trees
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 3, 6])
def test_parallel_sprint_equals_reference(p):
    ds = generate_quest(400, "F2", seed=4)
    ref = induce_serial(ds)
    got = ParallelSPRINT(n_processors=p).fit(ds)
    assert_trees_equal(got.tree, ref, f"(sprint p={p})")


def test_sprint_and_scalparc_same_tree_different_costs():
    ds = generate_quest(1500, "F2", seed=6)
    a = ScalParC(n_processors=8).fit(ds)
    b = ParallelSPRINT(n_processors=8).fit(ds)
    assert_trees_equal(a.tree, b.tree, "(scalparc vs sprint)")
    # SPRINT replicates the table: strictly more memory per rank
    assert b.stats.memory_per_rank_max > a.stats.memory_per_rank_max


# ---------------------------------------------------------------------------
# every rank builds the same tree
# ---------------------------------------------------------------------------

def test_all_ranks_return_identical_trees():
    from repro.core import induce_worker
    from repro.runtime import run_spmd

    ds = generate_quest(300, "F2", seed=9)
    trees = run_spmd(5, induce_worker, args=(ds, None))
    for t in trees[1:]:
        assert_trees_equal(trees[0], t, "(across ranks)")


# ---------------------------------------------------------------------------
# hypothesis-driven
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=15)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 120),
    p=st.sampled_from([2, 3, 5, 8]),
    dup=st.booleans(),
)
def test_property_scalparc_equals_serial(seed, n, p, dup):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n, duplicate_heavy=dup)
    ref = induce_serial(ds)
    got = ScalParC(n_processors=p, machine=None).fit(ds)
    assert_trees_equal(got.tree, ref, f"(hypothesis seed={seed} p={p})")

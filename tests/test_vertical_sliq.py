"""Vertical SLIQ/R: equality, parallelism cap, O(N) cost signatures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import VerticalSliqClassifier, induce_serial
from repro.core import InductionConfig, ScalParC
from repro.datagen import generate_quest, paper_dataset, random_dataset

from tests.conftest import assert_trees_equal


@pytest.mark.parametrize("p", [1, 2, 5, 9])
def test_identical_trees_any_p(p):
    ds = paper_dataset(700, "F2", seed=1)
    ref = induce_serial(ds)
    got = VerticalSliqClassifier(p).fit(ds)
    assert_trees_equal(got.tree, ref, f"(vertical p={p})")


def test_configs_respected():
    ds = generate_quest(400, "F3", seed=2)
    cfg = InductionConfig(max_depth=3, criterion="entropy",
                          categorical_binary_subsets=True)
    got = VerticalSliqClassifier(4, config=cfg).fit(ds)
    assert_trees_equal(got.tree, induce_serial(ds, cfg), "(vertical cfg)")


def test_parallelism_capped_at_attribute_count():
    """Ranks beyond n_attrs hold no lists: memory per rank stops falling."""
    ds = paper_dataset(2000, "F2", seed=3)  # 7 attributes
    mem = {}
    for p in (2, 7, 12):
        mem[p] = VerticalSliqClassifier(p).fit(ds).stats.memory_per_rank_max
    assert mem[7] < mem[2]
    assert mem[12] == pytest.approx(mem[7], rel=0.05)  # the cap


def test_class_list_replication_keeps_memory_order_n():
    """Doubling p cannot shave the replicated class list (16·N bytes)."""
    ds = paper_dataset(4000, "F2", seed=4)
    mems = [VerticalSliqClassifier(p).fit(ds).stats.memory_per_rank_max
            for p in (2, 4)]
    floor = 16 * 4000  # labels + leaf ids, replicated
    assert all(m >= floor for m in mems)


def test_level_exchange_traffic_is_order_n():
    """Per-rank traffic: vertical SLIQ/R stays O(N) (flat in p) while
    ScalParC's falls as O(N/p) — so growing the machine helps ScalParC
    and does nothing for the vertical formulation."""
    # N large enough that the O(N/p) entries outweigh the p-proportional
    # reduction and sample buffers at p = 16: since Presort stopped piling
    # a column onto rank 0 and shifting it back, ScalParC's p = 4 traffic
    # is half what it was and no longer flatters the ratio at N = 3000
    ds = paper_dataset(12_000, "F2", seed=5)
    cfg = InductionConfig(max_depth=4)
    v4 = VerticalSliqClassifier(4, config=cfg).fit(ds).stats
    v7 = VerticalSliqClassifier(7, config=cfg).fit(ds).stats
    vertical_drop = v4.bytes_per_rank_max / v7.bytes_per_rank_max
    assert 0.8 < vertical_drop < 1.3  # ~flat

    sc4 = ScalParC(4, config=cfg).fit(ds).stats
    sc16 = ScalParC(16, config=cfg).fit(ds).stats
    scalparc_drop = sc4.bytes_per_rank_max / sc16.bytes_per_rank_max
    assert scalparc_drop > 2.0  # O(N/p) scaling
    assert scalparc_drop > vertical_drop * 1.5


def test_random_datasets():
    for i in range(4):
        ds = random_dataset(np.random.default_rng(i), 90,
                            duplicate_heavy=i % 2 == 0)
        got = VerticalSliqClassifier(3, machine=None).fit(ds)
        assert_trees_equal(got.tree, induce_serial(ds), f"(random {i})")


def test_validation():
    with pytest.raises(ValueError):
        VerticalSliqClassifier(0)

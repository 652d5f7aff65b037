"""Public classifier facade: validation, stats wiring, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CRAY_T3D,
    InductionConfig,
    ScalParC,
    fit_scalparc,
    paper_dataset,
)
from repro.baselines import ParallelSPRINT
from repro.datagen import make_dataset
from repro.perfmodel import ZERO_LATENCY


@pytest.fixture(scope="module")
def small_ds():
    return paper_dataset(400, "F2", seed=0)


def test_fit_returns_tree_and_stats(small_ds):
    result = ScalParC(n_processors=4).fit(small_ds)
    assert result.n_processors == 4
    assert result.tree.n_nodes >= 1
    assert result.stats is not None
    assert result.stats.size == 4
    assert result.stats.parallel_time > 0


def test_fit_brings_home_rank_zeros_tree_only(small_ds, monkeypatch):
    """Every rank ends with the same tree and the facade keeps one, so
    only rank 0 returns it; a direct ``run_spmd`` of the worker still
    yields every rank's."""
    from repro.core import classifier
    from repro.core.induction import induce_worker
    from repro.runtime import run_spmd

    per_rank = []

    def spy(*args, **kwargs):
        per_rank.extend(run_spmd(*args, **kwargs))
        return per_rank

    monkeypatch.setattr(classifier, "run_spmd", spy)
    tree = ScalParC(n_processors=2, backend="process").fit(small_ds).tree
    assert per_rank == [tree, None]
    trees = run_spmd(2, induce_worker, args=(small_ds, InductionConfig()),
                     backend="process")
    assert trees[0].structurally_equal(trees[1])
    assert tree.structurally_equal(trees[0])


def test_machine_none_skips_stats(small_ds):
    result = ScalParC(n_processors=2, machine=None).fit(small_ds)
    assert result.stats is None


@pytest.mark.parametrize("facade", [ParallelSPRINT])
def test_comparator_facades_share_the_machine_contract(facade, small_ds):
    """The comparator facade shares ScalParC's one constructor:
    ``machine=None`` means an unpriced run (it used to be silently turned
    back into the T3D), the default is priced, and ``n_processors`` is
    validated the same way."""
    unpriced = facade(2, machine=None).fit(small_ds)
    assert unpriced.stats is None
    priced = facade(2).fit(small_ds)
    assert priced.stats is not None and priced.stats.size == 2
    assert priced.stats.machine_name == CRAY_T3D.name
    assert priced.tree.structurally_equal(unpriced.tree)
    with pytest.raises(ValueError):
        facade(0)


def test_custom_machine_is_used(small_ds):
    slow = CRAY_T3D.with_(a2a_bandwidth=CRAY_T3D.a2a_bandwidth / 100)
    fast = ScalParC(4, machine=CRAY_T3D).fit(small_ds)
    throttled = ScalParC(4, machine=slow).fit(small_ds)
    assert throttled.stats.parallel_time > fast.stats.parallel_time
    assert throttled.tree.structurally_equal(fast.tree)


def test_zero_latency_machine_removes_transport_cost(small_ds):
    """With free communication, remaining 'comm' time is pure wait from
    load imbalance, and the run is strictly faster than on the T3D."""
    free = ScalParC(4, machine=ZERO_LATENCY).fit(small_ds)
    t3d = ScalParC(4, machine=CRAY_T3D).fit(small_ds)
    assert free.stats.parallel_time < t3d.stats.parallel_time
    # every rank's comm time is bounded by the total imbalance, which is
    # itself bounded by the critical-path compute time
    assert free.stats.comm_time_max <= free.stats.parallel_time
    assert free.stats.total_bytes == t3d.stats.total_bytes  # traffic equal


def test_invalid_processor_count():
    with pytest.raises(ValueError):
        ScalParC(n_processors=0)
    with pytest.raises(ValueError):
        ScalParC(n_processors=-2)


def test_empty_dataset_rejected():
    """Refused by the facade before any rank starts: a plain
    ``ValueError``, not a ``SpmdWorkerError`` wrapping one per rank."""
    ds = make_dataset(continuous={"x": []}, labels=[])

    with pytest.raises(ValueError, match="empty dataset") as excinfo:
        ScalParC(2).fit(ds)
    assert type(excinfo.value) is ValueError


def test_fit_scalparc_helper(small_ds):
    r = fit_scalparc(small_ds, n_processors=3,
                     config=InductionConfig(max_depth=2))
    assert r.tree.depth <= 2
    assert r.n_processors == 3


def test_fit_is_deterministic(small_ds):
    a = ScalParC(5).fit(small_ds)
    b = ScalParC(5).fit(small_ds)
    assert a.tree.structurally_equal(b.tree)
    assert a.stats.parallel_time == b.stats.parallel_time
    assert a.stats.total_bytes == b.stats.total_bytes


def test_level_marks_track_tree_depth(small_ds):
    r = ScalParC(4).fit(small_ds)
    # one mark per induction level; at least depth levels ran
    assert len(r.stats.level_marks) >= r.tree.depth


def test_config_defaults_match_paper():
    cfg = ScalParC(2).config
    assert cfg.criterion == "gini"
    assert cfg.categorical_binary_subsets is False
    assert cfg.split_mode == "exact"
    assert cfg.max_depth is None

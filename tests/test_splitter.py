"""PerformSplitI/II internals: list regrouping via the node table,
blocked update configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InductionConfig
from repro.core.attribute_lists import build_local_lists
from repro.core.splitter import (
    LevelDecisions,
    ScalParCSplitPhase,
    SplitPhase,
)
from repro.datagen import make_dataset
from repro.runtime import run_spmd


def _two_attr_dataset():
    """x: continuous (shuffled vs record order); g: categorical."""
    return make_dataset(
        continuous={"x": [5.0, 1.0, 4.0, 2.0, 3.0, 6.0]},
        categorical={"g": ([0, 1, 0, 1, 0, 1], 2)},
        labels=[1, 0, 1, 0, 0, 1],
    )


def _split_on_x(threshold=3.5):
    """Decision: the single node splits on attribute 0 at x < threshold."""
    return LevelDecisions(
        splitting=np.array([True]),
        winner_attr=np.array([0]),
        threshold=np.array([threshold]),
        cat_layouts={},
        child_base=np.array([0]),
        n_next=2,
    )


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("blocked", [False, True])
def test_perform_split_routes_all_lists_consistently(size, blocked):
    ds = _two_attr_dataset()
    # blocked: the node-table update in one-pair rounds (§3.3.2), else
    # in the default rounds of ⌈N/p⌉ pairs
    config = InductionConfig(max_update_block=1 if blocked else None)

    def worker(comm):
        lists, n_total = build_local_lists(comm, ds)
        phase = ScalParCSplitPhase()
        phase.setup(comm, n_total)
        phase.execute(comm, lists, _split_on_x(), config)
        return [
            (alist.spec.name, alist.rids.copy(), alist.offsets.copy())
            for alist in lists
        ]

    results = run_spmd(size, worker)
    # records 1,3,4 have x<3.5 → child 0; records 0,2,5 → child 1
    for a in range(2):
        child0, child1 = [], []
        for r in results:
            name, rids, offsets = r[a]
            child0.extend(rids[offsets[0]:offsets[1]].tolist())
            child1.extend(rids[offsets[1]:offsets[2]].tolist())
        assert sorted(child0) == [1, 3, 4]
        assert sorted(child1) == [0, 2, 5]


@pytest.mark.parametrize("size", [2, 4])
def test_leaf_entries_dropped(size):
    ds = _two_attr_dataset()

    def worker(comm):
        lists, n_total = build_local_lists(comm, ds)
        phase = ScalParCSplitPhase()
        phase.setup(comm, n_total)
        # nothing splits: decisions mark the node as terminal
        decisions = LevelDecisions(
            splitting=np.array([False]),
            winner_attr=np.array([-1]),
            threshold=np.array([np.nan]),
            cat_layouts={},
            child_base=np.array([0]),
            n_next=0,
        )
        phase.execute(comm, lists, decisions, InductionConfig())
        return [alist.n_local for alist in lists]

    for sizes in run_spmd(size, worker):
        assert sizes == [0, 0]


def test_categorical_winner_split():
    ds = _two_attr_dataset()
    decisions = LevelDecisions(
        splitting=np.array([True]),
        winner_attr=np.array([1]),  # split on g
        threshold=np.array([np.nan]),
        cat_layouts={0: np.array([0, 1], dtype=np.int64)},
        child_base=np.array([0]),
        n_next=2,
    )

    def worker(comm):
        lists, n_total = build_local_lists(comm, ds)
        phase = ScalParCSplitPhase()
        phase.setup(comm, n_total)
        phase.execute(comm, lists, decisions, InductionConfig())
        x = lists[0]
        return (x.rids[x.offsets[0]:x.offsets[1]].tolist(),
                x.rids[x.offsets[1]:x.offsets[2]].tolist())

    results = run_spmd(3, worker)
    child0 = sorted(sum((r[0] for r in results), []))
    child1 = sorted(sum((r[1] for r in results), []))
    assert child0 == [0, 2, 4]  # g == 0
    assert child1 == [1, 3, 5]  # g == 1


def test_continuous_sorted_order_survives_split():
    ds = _two_attr_dataset()

    def worker(comm):
        lists, n_total = build_local_lists(comm, ds)
        phase = ScalParCSplitPhase()
        phase.setup(comm, n_total)
        phase.execute(comm, lists, _split_on_x(), InductionConfig())
        return lists[0].values.copy(), lists[0].offsets.copy()

    results = run_spmd(2, worker)
    for seg in range(2):
        merged = np.concatenate([
            v[o[seg]:o[seg + 1]] for v, o in results
        ])
        assert np.all(np.diff(merged) >= 0), f"segment {seg} unsorted"


def test_split_phase_base_class_is_abstract():
    phase = SplitPhase()
    with pytest.raises(NotImplementedError):
        phase.setup(None, 0)
    with pytest.raises(NotImplementedError):
        phase.execute(None, [], None, None)


def test_scalparc_phase_requires_setup():
    ds = _two_attr_dataset()

    def worker(comm):
        lists, _ = build_local_lists(comm, ds)
        phase = ScalParCSplitPhase()
        phase.execute(comm, lists, _split_on_x(), InductionConfig())

    from repro.runtime import SpmdWorkerError

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, worker)


@pytest.mark.parametrize("max_block", [1, 2, 100])
def test_blocked_configuration_same_result(max_block):
    ds = _two_attr_dataset()
    config = InductionConfig(max_update_block=max_block)

    def worker(comm):
        lists, n_total = build_local_lists(comm, ds)
        phase = ScalParCSplitPhase()
        phase.setup(comm, n_total)
        phase.execute(comm, lists, _split_on_x(), config)
        return sorted(lists[1].rids.tolist())

    for rids in run_spmd(2, worker):
        pass  # per-rank subsets vary; global check below

    def gather_worker(comm):
        lists, n_total = build_local_lists(comm, ds)
        phase = ScalParCSplitPhase()
        phase.setup(comm, n_total)
        phase.execute(comm, lists, _split_on_x(), config)
        return lists[1].rids.tolist()

    all_rids = sorted(sum(run_spmd(2, gather_worker), []))
    assert all_rids == [0, 1, 2, 3, 4, 5]

"""SPRINT baselines: serial IO model arithmetic and parallel scaling
behaviour (the §2 motivation and §3.2 negative result, quantified)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ScalParC, paper_dataset
from repro.baselines import ParallelSPRINT, SerialSPRINT
from repro.core import InductionConfig
from repro.datagen import make_dataset


# ---------------------------------------------------------------------------
# serial SPRINT IO model
# ---------------------------------------------------------------------------

def test_unbounded_budget_single_pass():
    ds = paper_dataset(500, "F2", seed=0)
    tree, stats = SerialSPRINT().fit(ds)
    assert stats.total_extra_io == 0
    assert all(lv.passes == lv.n_internal_nodes for lv in stats.levels)
    assert stats.peak_hash_entries == 500  # root hash table = whole set


def test_budget_forces_multiple_passes():
    ds = paper_dataset(1000, "F2", seed=0)
    _, tight = SerialSPRINT(memory_budget_entries=100).fit(ds)
    _, loose = SerialSPRINT(memory_budget_entries=10_000).fit(ds)
    assert tight.total_extra_io > 0
    assert loose.total_extra_io == 0
    # upper levels (big nodes) dominate the extra IO
    assert tight.levels[0].extra_io_entries >= tight.levels[-1].extra_io_entries


def test_io_model_arithmetic_exact():
    """Hand-check: root node 8 records, 2 attrs, budget 3 → 3 passes,
    (3−1)·(2−1)·8 = 16 extra entries."""
    ds = make_dataset(
        continuous={"x": [1, 2, 3, 4, 5, 6, 7, 8],
                    "y": [1, 1, 2, 2, 3, 3, 4, 4]},
        labels=[0, 0, 0, 0, 1, 1, 1, 1],
    )
    _, stats = SerialSPRINT(memory_budget_entries=3).fit(ds)
    root_level = stats.levels[0]
    assert root_level.hash_entries == 8
    assert root_level.passes == 3
    assert root_level.extra_io_entries == 16
    assert "passes 3" in stats.describe()


def test_tree_matches_reference():
    from repro.baselines import induce_serial

    ds = paper_dataset(300, "F3", seed=2)
    tree, _ = SerialSPRINT(memory_budget_entries=10).fit(ds)
    assert tree.structurally_equal(induce_serial(ds))


def test_invalid_budget():
    with pytest.raises(ValueError):
        SerialSPRINT(memory_budget_entries=0)


# ---------------------------------------------------------------------------
# parallel SPRINT scaling behaviour (§3.2's analysis, measured)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scaling_runs():
    ds = paper_dataset(2000, "F2", seed=1)
    cfg = InductionConfig(max_depth=4)
    out = {}
    for p in (2, 4, 8):
        out[p] = {
            "scalparc": ScalParC(p, config=cfg).fit(ds).stats,
            "sprint": ParallelSPRINT(p, config=cfg).fit(ds).stats,
        }
    return out


def test_sprint_replicated_table_excess_is_order_n(scaling_runs):
    """SPRINT's per-rank memory exceeds ScalParC's by ~the replicated
    table, 4·N·(1−1/p) bytes — i.e. an Ω(N) term that p cannot shrink."""
    n = 2000
    for p in (2, 4, 8):
        excess = (scaling_runs[p]["sprint"].memory_per_rank_max
                  - scaling_runs[p]["scalparc"].memory_per_rank_max)
        expected = 4 * n * (1 - 1 / p)  # int32 table minus ScalParC's slice
        assert excess >= 0.5 * expected


def test_scalparc_memory_shrinks_with_p(scaling_runs):
    mems = [scaling_runs[p]["scalparc"].memory_per_rank_max
            for p in (2, 4, 8)]
    assert mems[1] < 0.7 * mems[0]
    assert mems[2] < 0.7 * mems[1]


def test_sprint_per_rank_traffic_stays_high(scaling_runs):
    """SPRINT's per-rank splitting traffic is O(N): roughly constant in p,
    and increasingly worse than ScalParC's O(N/p) as p grows."""
    for p in (4, 8):
        sprint = scaling_runs[p]["sprint"].bytes_per_rank_max
        scalparc = scaling_runs[p]["scalparc"].bytes_per_rank_max
        assert sprint > scalparc
    ratio_4 = (scaling_runs[4]["sprint"].bytes_per_rank_max
               / scaling_runs[4]["scalparc"].bytes_per_rank_max)
    ratio_8 = (scaling_runs[8]["sprint"].bytes_per_rank_max
               / scaling_runs[8]["scalparc"].bytes_per_rank_max)
    assert ratio_8 > ratio_4  # the gap widens with p


def test_scalparc_level_exchange_traffic_is_order_n_over_p():
    """ScalParC's per-rank traffic falls as O(N/p): quadrupling the
    machine more than halves the bytes the busiest rank moves."""
    # N large enough that the O(N/p) entries outweigh the p-proportional
    # reduction and sample buffers at p = 16
    ds = paper_dataset(12_000, "F2", seed=5)
    cfg = InductionConfig(max_depth=4)
    sc4 = ScalParC(4, config=cfg).fit(ds).stats
    sc16 = ScalParC(16, config=cfg).fit(ds).stats
    assert sc4.bytes_per_rank_max / sc16.bytes_per_rank_max > 2.0


def test_sprint_validates_processor_count():
    with pytest.raises(ValueError):
        ParallelSPRINT(n_processors=0)


# ---------------------------------------------------------------------------
# checkpointing: the replicated table cannot snapshot — refuse at launch
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["thread", "process"])
def test_sprint_refuses_checkpointing_before_launch(monkeypatch, tmp_path,
                                                    backend):
    """Under REPRO_SPMD_CHECKPOINT the fit used to die inside the worker
    at the first level boundary, after Presort and a level of work; it is
    refused typed in the caller instead, and nothing is written."""
    from repro.runtime import CheckpointError

    ckpt_dir = tmp_path / "cuts"
    monkeypatch.setenv("REPRO_SPMD_CHECKPOINT", str(ckpt_dir))
    ds = paper_dataset(400, "F2", seed=1)
    with pytest.raises(CheckpointError, match="ReplicatedSprintSplitPhase"):
        ParallelSPRINT(2, backend=backend).fit(ds)
    assert not ckpt_dir.exists()


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_unsnapshottable_split_phase_is_refused_before_presort(
        monkeypatch, tmp_path, backend):
    """Any SplitPhase without the state hooks is turned away by the worker
    itself before it sorts anything: no collective is ever issued."""
    from repro.baselines import sprint_worker
    from repro.runtime import (CheckpointError, SpmdWorkerError,
                               TraceCollector, run_spmd)

    monkeypatch.setenv("REPRO_SPMD_CHECKPOINT", str(tmp_path / "cuts"))
    ds = paper_dataset(400, "F2", seed=1)
    collector = TraceCollector()
    with pytest.raises(SpmdWorkerError) as err:
        run_spmd(2, sprint_worker, args=(ds, InductionConfig(max_depth=3)),
                 backend=backend, trace=collector)
    assert all(isinstance(exc, CheckpointError)
               for exc in err.value.failures.values())
    assert all(not collector.events_of(rank) for rank in range(2))


def test_scalparc_split_phase_is_checkpointable():
    from repro.core.splitter import ScalParCSplitPhase

    ScalParCSplitPhase().require_checkpointable()   # does not raise

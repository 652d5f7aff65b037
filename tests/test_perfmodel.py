"""Performance-model tests: cost functions, trackers, lock-step clocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perfmodel import (
    CRAY_T3D,
    ZERO_LATENCY,
    MachineSpec,
    PerfRun,
    RankTracker,
    collective_category,
    collective_cost,
    format_bytes,
    format_seconds,
    ptp_cost,
    scale_machine,
)
from repro.runtime import reduction, run_spmd


# ---------------------------------------------------------------------------
# cost functions
# ---------------------------------------------------------------------------

def test_collective_category_classification():
    assert collective_category("alltoallv") == "a2a"
    assert collective_category("alltoall") == "a2a"
    assert collective_category("barrier") == "sync"
    assert collective_category("reduce(op=sum,root=0)") == "tree"
    assert collective_category("allreduce(op=sum)") == "tree"


def test_single_rank_collectives_are_free():
    assert collective_cost(CRAY_T3D, "allreduce(op=sum)", [100], [100], 1) == 0.0


def test_cost_monotone_in_volume_and_size():
    small = collective_cost(CRAY_T3D, "alltoallv", [100, 100], [100, 100], 2)
    big = collective_cost(CRAY_T3D, "alltoallv", [10000, 100], [100, 10000], 2)
    assert big > small
    wide = collective_cost(CRAY_T3D, "alltoallv", [100] * 8, [100] * 8, 8)
    assert wide > small  # latency term grows with p


def test_a2a_cost_uses_per_processor_latency():
    # zero bytes: cost is exactly a2a_latency * p
    cost = collective_cost(CRAY_T3D, "alltoallv", [0, 0, 0, 0], [0, 0, 0, 0], 4)
    assert cost == pytest.approx(CRAY_T3D.a2a_latency * 4)


def test_tree_cost_uses_log_latency():
    cost = collective_cost(CRAY_T3D, "barrier", [0] * 8, [0] * 8, 8)
    assert cost == pytest.approx(CRAY_T3D.coll_latency * 3)


def test_ptp_cost_linear_model():
    assert ptp_cost(CRAY_T3D, 0) == CRAY_T3D.ptp_latency
    assert ptp_cost(CRAY_T3D, 3_000_000) == pytest.approx(
        CRAY_T3D.ptp_latency + 3_000_000 / CRAY_T3D.ptp_bandwidth
    )


def test_zero_latency_machine_prices_nothing():
    assert collective_cost(ZERO_LATENCY, "alltoallv", [1000] * 4,
                           [1000] * 4, 4) == 0.0


def test_scale_machine_factors():
    fast = scale_machine(CRAY_T3D, latency=0.5, bandwidth=2.0, compute=4.0)
    assert fast.ptp_latency == CRAY_T3D.ptp_latency * 0.5
    assert fast.ptp_bandwidth == CRAY_T3D.ptp_bandwidth * 2.0
    assert fast.cost_of("scan") == CRAY_T3D.cost_of("scan") / 4.0


def test_machine_with_override():
    m = CRAY_T3D.with_(a2a_bandwidth=1e9)
    assert m.a2a_bandwidth == 1e9
    assert m.ptp_latency == CRAY_T3D.ptp_latency


def test_cost_of_falls_back_to_default():
    assert CRAY_T3D.cost_of("no-such-kind") == CRAY_T3D.default_compute_cost


# ---------------------------------------------------------------------------
# rank tracker
# ---------------------------------------------------------------------------

def test_tracker_compute_advances_clock():
    t = RankTracker(0, CRAY_T3D)
    t.add_compute("scan", 1000)
    assert t.clock == pytest.approx(1000 * CRAY_T3D.cost_of("scan"))
    assert t.comp_seconds == t.clock
    assert t.compute_units["scan"] == 1000


def test_tracker_ignores_nonpositive_work():
    t = RankTracker(0, CRAY_T3D)
    t.add_compute("scan", 0)
    t.add_compute("scan", -5)
    assert t.clock == 0.0


def test_tracker_memory_watermark():
    t = RankTracker(0, CRAY_T3D)
    t.register_bytes("lists", 1000)
    t.register_bytes("table", 500)
    assert t.memory_watermark == 1500
    t.transient_bytes(2000)
    assert t.memory_watermark == 3500
    t.register_bytes("lists", 100)  # shrink: watermark keeps the peak
    assert t.persistent_total == 600
    assert t.memory_watermark == 3500
    t.release_bytes("table")
    assert t.persistent_total == 100


def test_tracker_level_marks():
    t = RankTracker(0, CRAY_T3D)
    t.add_compute("scan", 10)
    t.mark_level(0)
    t.add_compute("scan", 10)
    t.mark_level(1)
    assert len(t.level_marks) == 2
    assert t.level_marks[1][1] > t.level_marks[0][1]


# ---------------------------------------------------------------------------
# lock-step clock through real runs
# ---------------------------------------------------------------------------

def test_clocks_synchronized_after_collective():
    perf = PerfRun(4, CRAY_T3D)

    def worker(comm):
        comm.perf.add_compute("scan", (comm.rank + 1) * 1000)  # imbalance
        comm.allreduce(np.int64(1), reduction.SUM)
        return comm.perf.clock

    clocks = run_spmd(4, worker, observer=perf, rank_perf=perf.trackers)
    assert len(set(clocks)) == 1  # BSP: everyone lands on the same clock
    # the slowest rank determines the pre-collective time
    slowest = 4000 * CRAY_T3D.cost_of("scan")
    assert clocks[0] > slowest


def test_imbalance_charged_as_comm_wait():
    perf = PerfRun(2, CRAY_T3D)

    def worker(comm):
        comm.perf.add_compute("scan", 100000 if comm.rank == 0 else 0)
        comm.barrier()

    run_spmd(2, worker, observer=perf, rank_perf=perf.trackers)
    # rank 1 waited for rank 0's compute inside the barrier
    assert perf.trackers[1].comm_seconds > perf.trackers[0].comm_seconds


def test_stats_aggregation_fields():
    perf = PerfRun(3, CRAY_T3D)

    def worker(comm):
        comm.perf.register_bytes("x", 100 * (comm.rank + 1))
        comm.allgatherv(np.zeros(10 * (comm.rank + 1), dtype=np.int64))
        comm.perf.mark_level("L0")

    run_spmd(3, worker, observer=perf, rank_perf=perf.trackers)
    stats = perf.stats()
    assert stats.size == 3
    assert stats.parallel_time > 0
    assert stats.total_bytes > 0
    assert stats.memory_per_rank_max >= 300
    assert stats.collective_counts.get("tree", 0) >= 3
    assert stats.level_marks[0][0] == "L0"
    assert "p=3" in stats.describe()
    assert len(stats.level_durations()) == 1


def test_ptp_priced_on_receiver():
    perf = PerfRun(2, CRAY_T3D)

    def worker(comm):
        if comm.rank == 0:
            comm.send(np.zeros(1000, dtype=np.float64), dest=1)
        else:
            comm.recv(source=0)
        comm.barrier()

    run_spmd(2, worker, observer=perf, rank_perf=perf.trackers)
    assert perf.trackers[0].bytes_sent == 8000
    assert perf.trackers[1].bytes_recv == 8000
    assert perf.trackers[1].n_ptp == 1


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def test_format_bytes():
    assert format_bytes(512) == "512 B"
    assert format_bytes(2048) == "2.00 KiB"
    assert format_bytes(3 * 1024 ** 2) == "3.00 MiB"
    assert "GiB" in format_bytes(5 * 1024 ** 3)


def test_format_seconds():
    assert "µs" in format_seconds(5e-6)
    assert "ms" in format_seconds(0.02)
    assert format_seconds(2.5) == "2.50 s"


def test_from_trackers_requires_trackers():
    from repro.perfmodel import SimulatedRunStats

    with pytest.raises(ValueError):
        SimulatedRunStats.from_trackers(CRAY_T3D, [])

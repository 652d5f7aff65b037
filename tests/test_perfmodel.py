"""Performance-model tests: cost functions, ledgers, the lock-step
replay, and pins of whole fits' modeled stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ScalParC
from repro.core import InductionConfig
from repro.datagen import generate_quest
from repro.perfmodel import (
    CRAY_T3D,
    ZERO_LATENCY,
    MachineSpec,
    RankTracker,
    collective_category,
    collective_cost,
    format_bytes,
    format_seconds,
    price,
    ptp_cost,
    replay,
    scale_machine,
)
from repro.runtime import (
    TraceCollector,
    available_backends,
    reduction,
    run_spmd,
)
from repro.runtime.collective import Collective

from tests.conftest import modeled_stats_digest

BACKENDS = [b for b in ("thread", "process", "tcp")
            if b in available_backends()]


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
# the ledger, priced by replay
# ---------------------------------------------------------------------------

def _priced(ledger: RankTracker, machine: MachineSpec = CRAY_T3D):
    (rank,) = replay([ledger], machine)
    return rank


def test_tracker_compute_advances_clock():
    t = RankTracker()
    t.add_compute("scan", 1000)
    assert t.clock == 1                 # the ledger position: one row
    r = _priced(t)
    assert r.clock == pytest.approx(1000 * CRAY_T3D.cost_of("scan"))
    assert r.comp_seconds == r.clock
    assert r.compute_units["scan"] == 1000


def test_tracker_ignores_nonpositive_work():
    t = RankTracker()
    t.add_compute("scan", 0)
    t.add_compute("scan", -5)
    assert t.rows == []
    assert _priced(t).clock == 0.0


def test_tracker_memory_watermark():
    t = RankTracker()
    t.register_bytes("lists", 1000)
    t.register_bytes("table", 500)
    assert _priced(t).memory_watermark == 1500
    t.transient_bytes(2000)
    assert _priced(t).memory_watermark == 3500
    t.register_bytes("lists", 100)  # shrink: watermark keeps the peak
    assert _priced(t).persistent_total == 600
    assert _priced(t).memory_watermark == 3500
    t.release_bytes("table")
    assert _priced(t).persistent_total == 100


def test_tracker_level_marks():
    t = RankTracker()
    t.add_compute("scan", 10)
    t.mark_level(0)
    t.add_compute("scan", 10)
    t.mark_level(1)
    marks = _priced(t).level_marks
    assert len(marks) == 2
    assert marks[1][1] > marks[0][1]


def test_phase_rows_cover_the_span_before_them():
    t = RankTracker()
    t.add_compute("scan", 5)
    start = t.clock
    t.add_compute("scan", 10)
    t.add_compute("sort", 10)
    t.add_phase_time("work", t.clock - start)
    t.add_phase_time("empty", 0)        # spans nothing: no row
    r = _priced(t)
    assert r.phase_seconds == {"work": 10 * CRAY_T3D.cost_of("scan")
                               + 10 * CRAY_T3D.cost_of("sort")}
    # one ledger, any machine: re-priced without re-running
    assert _priced(t, ZERO_LATENCY).phase_seconds == r.phase_seconds
    assert _priced(t, scale_machine(CRAY_T3D, compute=2.0)).clock \
        == pytest.approx(r.clock / 2)


# ---------------------------------------------------------------------------
# lock-step clock through real runs
# ---------------------------------------------------------------------------

def _run(size, worker, backend=None):
    ledgers = [RankTracker() for _ in range(size)]
    results = run_spmd(size, worker, rank_perf=ledgers, backend=backend)
    return ledgers, results


def test_clocks_synchronized_after_collective():
    def worker(comm):
        comm.perf.add_compute("scan", (comm.rank + 1) * 1000)  # imbalance
        comm.allreduce(np.int64(1), reduction.SUM)

    ledgers, _ = _run(4, worker)
    clocks = [r.clock for r in replay(ledgers, CRAY_T3D)]
    assert len(set(clocks)) == 1  # BSP: everyone lands on the same clock
    # the slowest rank determines the pre-collective time
    slowest = 4000 * CRAY_T3D.cost_of("scan")
    assert clocks[0] > slowest


def test_imbalance_charged_as_comm_wait():
    def worker(comm):
        comm.perf.add_compute("scan", 100000 if comm.rank == 0 else 0)
        comm.barrier()

    ledgers, _ = _run(2, worker)
    ranks = replay(ledgers, CRAY_T3D)
    # rank 1 waited for rank 0's compute inside the barrier
    assert ranks[1].comm_seconds > ranks[0].comm_seconds


def test_stats_aggregation_fields():
    def worker(comm):
        comm.perf.register_bytes("x", 100 * (comm.rank + 1))
        comm.allgatherv(np.zeros(10 * (comm.rank + 1), dtype=np.int64))
        comm.perf.mark_level("L0")

    ledgers, _ = _run(3, worker)
    stats = price(ledgers, CRAY_T3D)
    assert stats.size == 3
    assert stats.parallel_time > 0
    assert stats.total_bytes > 0
    assert stats.memory_per_rank_max >= 300
    assert stats.collective_counts.get("tree", 0) >= 3
    assert stats.level_marks[0][0] == "L0"
    assert "p=3" in stats.describe()
    assert len(stats.level_durations()) == 1


def test_ptp_priced_on_receiver():
    def worker(comm):
        if comm.rank == 0:
            comm.send(np.zeros(1000, dtype=np.float64), dest=1)
        else:
            comm.recv(source=0)
        comm.barrier()

    ledgers, _ = _run(2, worker)
    ranks = replay(ledgers, CRAY_T3D)
    assert ranks[0].bytes_sent == 8000
    assert ranks[1].bytes_recv == 8000
    assert ranks[1].n_ptp == 1
    # before the barrier: the receive cost the receiver, the send nothing
    assert ranks[1].clocks[1] == ptp_cost(CRAY_T3D, 8000)
    assert ranks[0].clocks[1] == 0.0


def test_collective_bytes_come_from_every_ranks_sizes():
    """The byte rules run on the sizes each rank booked: an allgather
    sends a rank's block to every peer, a reduction one up- and one
    down-edge, an all-to-all every block but the own one."""
    def worker(comm):
        comm.allgatherv(np.zeros(comm.rank + 1, dtype=np.int8))
        comm.allreduce(np.zeros(4, dtype=np.int8), reduction.SUM)
        comm.alltoallv([np.zeros(10 * comm.rank + j, dtype=np.int8)
                        for j in range(comm.size)])

    ledgers, _ = _run(2, worker)
    assert [row[1:] for row in ledgers[1].rows] == [
        ("allgatherv", 2), ("allreduce(op=sum)", 4), ("alltoallv", (10, 11))]
    ranks = replay(ledgers, CRAY_T3D)
    # allgatherv [1, 2]: sent s·(p−1), received the others'; allreduce:
    # 4 up, 4 down; alltoallv: rank 0 sends its 1-byte block, rank 1 its
    # 10-byte block
    assert [r.bytes_sent for r in ranks] == [1 + 4 + 1, 2 + 4 + 10]
    assert [r.bytes_recv for r in ranks] == [2 + 4 + 10, 1 + 4 + 1]


# ---------------------------------------------------------------------------
# replay safety
# ---------------------------------------------------------------------------

def _ledger(*ops):
    t = RankTracker()
    for op in ops:
        t.add_compute("scan", 10)
        t.add_collective(Collective(op), None)
    return t


def test_price_requires_ledgers():
    with pytest.raises(ValueError, match="no ledgers"):
        price([], CRAY_T3D)


@pytest.mark.parametrize("other, what", [
    (("barrier", "allgather"), "the op at collective step 1"),
    (("barrier",), "the count at collective step 1"),
    (("barrier", "barrier", "barrier"), "the count at collective step 2"),
])
def test_replay_refuses_ledgers_that_disagree(other, what):
    """Ledgers whose collective ops or counts differ were not recorded by
    one SPMD job: pricing them raises, naming the step."""
    ledgers = [_ledger("barrier", "barrier"), _ledger(*other)]
    with pytest.raises(ValueError, match=f"disagree on {what}"):
        price(ledgers, CRAY_T3D)


# ---------------------------------------------------------------------------
# equivalence pins: the modeled stats of whole fits, on every backend
# ---------------------------------------------------------------------------

def _pinned_fit(function, p, mode, backend, trace=None):
    ds = generate_quest(4000, function, seed=3)
    if mode == "stream":
        cfg = InductionConfig(max_depth=8, stream_chunk_records=1000,
                              sketch_size=64)
        return ScalParC(p, cfg, backend=backend).fit_stream(
            ds, trace=trace).stats
    cfg = (InductionConfig(max_depth=8, split_mode="voted", n_bins=16)
           if mode == "voted" else InductionConfig(max_depth=8))
    return ScalParC(p, cfg, backend=backend).fit(ds, trace=trace).stats


#: (function, p, mode) -> digest of the modeled stats; F5 at p = 2 hands
#: off (its local phase books compute rows and no collective rows); the
#: stream fit's Stream.sketch all-to-alls carry categorical count rows
#: instead of padded categorical sketches, and its root's statistics are
#: built once at the end of the stream (its 64-slot sketches are lossy
#: there, so the root's threshold and the bytes of every later pass
#: moved; the collective schedule and every other ledger row did not);
#: its ingest runs no collective (the four per-epoch class-totals
#: allreduces left), and a pass reduces only its visited nodes' totals
PINNED_STATS = {
    ("F2", 1, "exact"): "3ceb960c920576e0",
    ("F2", 2, "exact"): "8fad0a46a3edf5e3",
    ("F2", 3, "exact"): "450715ef0bd2027b",
    ("F2", 5, "exact"): "4c67c28cf8fd3d03",
    ("F5", 1, "exact"): "2ff7806c5b28bf2d",
    ("F5", 2, "exact"): "20776aec6fea2b78",
    ("F5", 3, "exact"): "ad6ef520878a909b",
    ("F5", 5, "exact"): "2a373544064cfa3e",
    ("F7", 1, "exact"): "9b1bfae90aba97e7",
    ("F7", 2, "exact"): "61fa2b8342d48428",
    ("F7", 3, "exact"): "6d60423b4645a19b",
    ("F7", 5, "exact"): "8b7eb9d1b5639a4c",
    ("F5", 3, "voted"): "6f5b957ff74afcc0",
    ("F2", 2, "stream"): "13810a2a937d0b2f",
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(PINNED_STATS),
                         ids=lambda c: "-".join(map(str, c)))
def test_modeled_stats_are_pinned(case, backend):
    """Replaying the ledgers gives exactly the modeled stats the inline
    lock-step clock gave before it left the engines — every field but the
    measured transport counters, on every backend."""
    assert modeled_stats_digest(_pinned_fit(*case, backend)) \
        == PINNED_STATS[case]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["exact", "voted", "stream"])
def test_tracing_leaves_modeled_stats_unchanged(mode, backend):
    """The trace is a sink: a traced fit books the same ledger, so every
    modeled stat equals the untraced fit's."""
    collector = TraceCollector()
    traced = _pinned_fit("F2", 2, mode, backend, trace=collector)
    assert collector.events_of(0)
    assert modeled_stats_digest(traced) \
        == modeled_stats_digest(_pinned_fit("F2", 2, mode, backend))


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

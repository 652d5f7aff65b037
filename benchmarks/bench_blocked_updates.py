"""Experiment E5 — blocked node-table updates under split skew (§3.3.2).

"There is a possibility … that some processors might send more than O(N/p)
updates to the node table.  … memory scalability is still ensured in
ScalParC in such cases, by dividing the updates being sent into blocks of
N/p."

This bench constructs exactly that pathological case — one rank must send
*every* update — and measures the peak transient communication buffer per
rank with blocking on vs off, across skew levels.  Blocked rounds keep the
peak bounded by the block size; unblocked updates blow up linearly with
the skewed rank's share.
"""

from __future__ import annotations

import numpy as np
from conftest import SCALE, emit

from repro.analysis import format_table
from repro.hashing import DistributedNodeTable
from repro.perfmodel import CRAY_T3D, RankTracker, replay
from repro.runtime import run_spmd

N = int(64_000 * SCALE)
P = 8


def _peak_update_buffer(skew: float, blocked: bool) -> tuple[int, int]:
    """Run one skewed table update; return (peak transient bytes, rounds).

    ``skew`` = fraction of all updates sent by rank 0 (the rest spread
    evenly over the other ranks).
    """
    rng = np.random.default_rng(0)
    keys = rng.permutation(N).astype(np.int64)
    vals = rng.integers(0, 100, N).astype(np.int32)
    n0 = int(N * skew)
    shares = [n0] + [(N - n0) // (P - 1)] * (P - 1)
    bounds = np.concatenate(([0], np.cumsum(shares)))
    ledgers = [RankTracker() for _ in range(P)]

    def worker(comm):
        table = DistributedNodeTable(comm, N)
        lo, hi = bounds[comm.rank], bounds[comm.rank + 1]
        return table.update(keys[lo:hi], vals[lo:hi], blocked=blocked)

    rounds = run_spmd(P, worker, rank_perf=ledgers)
    peak = max(r.memory_watermark - r.persistent_total
               for r in replay(ledgers, CRAY_T3D))
    return peak, rounds[0]


def test_blocked_updates_bound_memory(benchmark):
    benchmark.pedantic(
        lambda: _peak_update_buffer(0.9, True), rounds=1, iterations=1
    )

    chunk = -(-N // P)
    rows = []
    peaks = {}
    for skew in (1 / P, 0.25, 0.5, 1.0):
        blocked_peak, rounds = _peak_update_buffer(skew, True)
        unblocked_peak, _ = _peak_update_buffer(skew, False)
        peaks[skew] = (blocked_peak, unblocked_peak)
        rows.append([
            f"{skew:.2f}",
            rounds,
            f"{blocked_peak / 1024:.0f}",
            f"{unblocked_peak / 1024:.0f}",
            f"{unblocked_peak / blocked_peak:.2f}x",
        ])
    text = format_table(
        ["skew (rank0 share)", "rounds", "blocked peak KiB",
         "unblocked peak KiB", "blow-up"],
        rows,
        title=f"Node-table update buffers under skew "
              f"(N={N}, p={P}, block=⌈N/p⌉={chunk} entries)",
    )
    emit("blocked_updates", text)

    # ---- §3.3.2's memory guarantee --------------------------------------
    pair_bytes = 8  # (slot, child) int32 pair
    for skew, (blocked_peak, unblocked_peak) in peaks.items():
        # blocked: no rank ever buffers much more than one block of pairs
        assert blocked_peak <= 3 * chunk * pair_bytes
    # unblocked: the fully skewed rank buffers ~N pairs — p/3+ times more
    assert peaks[1.0][1] > peaks[1.0][0] * (P / 3)
    # balanced load needs no extra rounds
    balanced_rounds = _peak_update_buffer(1 / P, True)[1]
    assert balanced_rounds == 1

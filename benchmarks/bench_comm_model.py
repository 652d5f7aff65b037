"""Experiment E3 — the in-text machine benchmark (§5).

The paper benchmarks Cray MPI "assuming a linear model of communication"
and reports point-to-point latency/bandwidth plus all-to-all latency (per
processor) and bandwidth.  This bench performs the same microbenchmark
against the *simulated* transport: sweep message sizes, collect modeled
times, fit the linear model, and verify the fit recovers the configured
machine parameters — i.e. the substrate really implements the cost model
the figures are priced with.
"""

from __future__ import annotations

import numpy as np
from conftest import emit

from repro.analysis import format_table
from repro.perfmodel import CRAY_T3D, RankTracker, price
from repro.runtime import run_spmd

SIZES = [1_000, 10_000, 100_000, 1_000_000]  # bytes per message


def _ptp_time(nbytes: int) -> float:
    ledgers = [RankTracker() for _ in range(2)]

    def worker(comm):
        payload = np.zeros(nbytes, dtype=np.uint8)
        if comm.rank == 0:
            comm.send(payload, dest=1)
        else:
            comm.recv(source=0)
        comm.barrier()

    run_spmd(2, worker, rank_perf=ledgers)
    barrier_cost = CRAY_T3D.coll_latency  # log2(2) = 1 stage
    return price(ledgers, CRAY_T3D).parallel_time - barrier_cost


def _a2a_time(nbytes_per_dest: int, p: int) -> float:
    ledgers = [RankTracker() for _ in range(p)]

    def worker(comm):
        bufs = [np.zeros(nbytes_per_dest, dtype=np.uint8)
                for _ in range(comm.size)]
        comm.alltoallv(bufs)

    run_spmd(p, worker, rank_perf=ledgers)
    return price(ledgers, CRAY_T3D).parallel_time


def test_comm_model_microbenchmark(benchmark):
    benchmark.pedantic(lambda: _a2a_time(10_000, 8), rounds=1, iterations=1)

    # -- point-to-point fit ------------------------------------------------
    ptp_times = [_ptp_time(m) for m in SIZES]
    slope, intercept = np.polyfit(SIZES, ptp_times, 1)
    fitted_bw = 1.0 / slope
    rows = [
        ["point-to-point latency",
         f"{CRAY_T3D.ptp_latency * 1e6:.1f} µs",
         f"{intercept * 1e6:.1f} µs"],
        ["point-to-point bandwidth",
         f"{CRAY_T3D.ptp_bandwidth / 1e6:.1f} MB/s",
         f"{fitted_bw / 1e6:.1f} MB/s"],
    ]

    # -- all-to-all fit (per-processor latency, aggregate bandwidth) -------
    p = 8
    a2a_times = [_a2a_time(m, p) for m in SIZES]
    # volume per rank = 2·(p−1)·m (sent + received)
    volumes = [2 * (p - 1) * m for m in SIZES]
    slope_a, intercept_a = np.polyfit(volumes, a2a_times, 1)
    rows += [
        ["all-to-all latency/proc",
         f"{CRAY_T3D.a2a_latency * 1e6:.1f} µs",
         f"{intercept_a / p * 1e6:.1f} µs"],
        ["all-to-all bandwidth",
         f"{CRAY_T3D.a2a_bandwidth / 1e6:.1f} MB/s",
         f"{1.0 / slope_a / 1e6:.1f} MB/s"],
    ]
    text = format_table(
        ["parameter", "configured", "fitted from microbenchmark"], rows,
        title="Machine benchmark (linear communication model, §5)",
    )
    emit("comm_model", text, data={
        "machine": CRAY_T3D.name,
        "message_sizes_bytes": SIZES,
        "fits": {
            "ptp_latency_s": {"configured": CRAY_T3D.ptp_latency,
                              "fitted": float(intercept)},
            "ptp_bandwidth_Bps": {"configured": CRAY_T3D.ptp_bandwidth,
                                  "fitted": float(fitted_bw)},
            "a2a_latency_per_proc_s": {"configured": CRAY_T3D.a2a_latency,
                                       "fitted": float(intercept_a / p)},
            "a2a_bandwidth_Bps": {"configured": CRAY_T3D.a2a_bandwidth,
                                  "fitted": float(1.0 / slope_a)},
        },
    })

    # ---- the fits must recover the configured machine -------------------
    np.testing.assert_allclose(intercept, CRAY_T3D.ptp_latency, rtol=0.05)
    np.testing.assert_allclose(fitted_bw, CRAY_T3D.ptp_bandwidth, rtol=0.05)
    np.testing.assert_allclose(intercept_a, CRAY_T3D.a2a_latency * p,
                               rtol=0.05)
    np.testing.assert_allclose(1.0 / slope_a, CRAY_T3D.a2a_bandwidth,
                               rtol=0.05)

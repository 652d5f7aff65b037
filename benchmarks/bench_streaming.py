"""Experiment E-stream — chunked-ingest induction vs batch refits.

The streaming driver's claim: when records arrive in chunks, maintaining
mergeable per-(node, attribute) sketches and growing the tree once at
end of stream is far cheaper than the alternative an operator has
without it — **refitting batch ScalParC on the growing prefix after
every chunk** — while giving up little accuracy.

Measured on the F2 paper workload split into fixed-size epoch chunks:

* wall-clock of one streaming pass vs the sum of per-chunk batch refits
  (best of repeats), and the resulting ingest throughput (records/s);
* communication volume per epoch, from collective traces: bytes a
  streaming epoch moves (class-total allreduces, sketches to their
  scorers, winners back) vs bytes one
  batch refit moves — the refit re-pays the full presort + per-level
  collectives on the whole prefix every chunk;
* end-model accuracy of both paths (the streaming tree is sketch-lossy
  at this scale, so the bar is parity within two points, not equality).

Emitted as ``BENCH_streaming.{txt,json}``.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import SCALE, emit

from repro.analysis import format_table
from repro.core import InductionConfig, ScalParC
from repro.datagen import paper_dataset
from repro.perfmodel import format_bytes
from repro.runtime import TraceCollector

N = int(24_000 * SCALE)
P = 4
N_CHUNKS = 12
CHUNK = -(-N // N_CHUNKS)
REPEATS = 3
MAX_DEPTH = 8
#: acceptance bars: streaming must beat refit-per-chunk on wall-clock
#: and on bytes moved per epoch, at ≤ 2 points of accuracy give-up
ACCURACY_SLACK = 0.02


def _traced_bytes(collector: TraceCollector) -> int:
    """Collective payload+result bytes one rank moved, averaged over the
    ranks (a streaming rank receives the sketches of the nodes it scores,
    so the volume differs by rank)."""
    return sum(ev.payload_nbytes + ev.result_nbytes
               for rank in range(P)
               for ev in collector.events_of(rank)) // P


def test_streaming_vs_batch_refit_per_chunk():
    dataset = paper_dataset(N, "F2", seed=1)
    test_set = paper_dataset(max(N // 4, 1000), "F2", seed=2)
    stream_cfg = InductionConfig(max_depth=MAX_DEPTH,
                                 stream_chunk_records=CHUNK,
                                 sketch_size=256)
    batch_cfg = InductionConfig(max_depth=MAX_DEPTH)
    prefixes = [dataset.take(np.arange(min((k + 1) * CHUNK, N)))
                for k in range(N_CHUNKS)]

    # -- wall-clock, interleaved repeats, best-of ----------------------
    stream_wall, refit_wall = [], []
    stream_tree = refit_tree = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        stream_tree = ScalParC(P, stream_cfg,
                               machine=None).fit_stream(dataset).tree
        stream_wall.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        for prefix in prefixes:
            refit_tree = ScalParC(P, batch_cfg,
                                  machine=None).fit(prefix).tree
        refit_wall.append(time.perf_counter() - t0)
    t_stream, t_refit = min(stream_wall), min(refit_wall)

    # -- communication volume, one traced run each ---------------------
    trace = TraceCollector()
    ScalParC(P, stream_cfg, machine=None).fit_stream(dataset, trace=trace)
    stream_bytes = _traced_bytes(trace)
    refit_bytes = 0
    for prefix in prefixes:
        trace = TraceCollector()
        ScalParC(P, batch_cfg, machine=None).fit(prefix, trace=trace)
        refit_bytes += _traced_bytes(trace)

    def acc(tree) -> float:
        return float((tree.predict(test_set) == test_set.labels).mean())

    rows = [
        {
            "mode": "stream (sketches)",
            "wall_s": t_stream,
            "ingest_records_per_s": N / t_stream,
            "bytes_per_epoch": stream_bytes // N_CHUNKS,
            "total_bytes": stream_bytes,
            "accuracy": acc(stream_tree),
        },
        {
            "mode": "batch refit/chunk",
            "wall_s": t_refit,
            "ingest_records_per_s": N / t_refit,
            "bytes_per_epoch": refit_bytes // N_CHUNKS,
            "total_bytes": refit_bytes,
            "accuracy": acc(refit_tree),
        },
    ]
    table = format_table(
        ["mode", "wall s", "records/s", "bytes/epoch", "accuracy"],
        [[r["mode"], f"{r['wall_s']:.2f}",
          f"{r['ingest_records_per_s']:,.0f}",
          format_bytes(r["bytes_per_epoch"]),
          f"{r['accuracy']:.4f}"] for r in rows],
    )
    text = (
        f"streaming ingest vs batch refit-per-chunk "
        f"(F2, n={N:,}, p={P}, {N_CHUNKS} chunks of {CHUNK:,})\n"
        f"{table}\n"
        f"speedup: {t_refit / t_stream:.2f}x wall-clock, "
        f"{refit_bytes / max(stream_bytes, 1):.2f}x bytes"
    )
    emit("BENCH_streaming", text, data={
        "n_records": N, "n_processors": P, "n_chunks": N_CHUNKS,
        "chunk_records": CHUNK, "sketch_size": 256,
        "rows": rows,
        "speedup_wall": t_refit / t_stream,
        "speedup_bytes": refit_bytes / max(stream_bytes, 1),
    })

    assert t_stream < t_refit, \
        f"streaming ({t_stream:.2f}s) must beat refit/chunk ({t_refit:.2f}s)"
    assert stream_bytes // N_CHUNKS < refit_bytes // N_CHUNKS, \
        "a streaming epoch must move fewer bytes than one batch refit"
    assert acc(stream_tree) >= acc(refit_tree) - ACCURACY_SLACK, \
        "sketch-lossy streaming gave up more than the allowed accuracy"

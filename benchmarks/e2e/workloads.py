"""The four benchmark workloads and the sizes shared by all of them.

Each workload is the pipeline a user runs (generate → fit → deploy →
score); they differ in *which layers the fit spends its time in* — see
``README.md`` for the reasoning behind every row.  Sizes are what fits
the driver's budget on a 2-core host (about 25 s per run, all in); tree
shape is pinned by the label noise and ``max_depth``, so a new seed
keeps each workload's character.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "PERTURBATION", "HOLDOUT_RECORDS",
           "MIN_REPEATS", "SERVE_ROUNDS", "PREDICT_CALLS", "CLIENTS",
           "LATENCY_REQUESTS", "BULK_REQUESTS", "BULK_RECORDS",
           "STREAM_ACCURACY_BAR"]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Quest predicate function labelling the records
    function: str
    n_train: int
    max_depth: int
    backend: str
    n_ranks: int
    #: timed fits (upper bound; the --seconds budget may stop earlier,
    #: never below MIN_REPEATS)
    repeats: int
    #: streaming induction: records per epoch (None = batch ``fit``)
    stream_chunk: int | None = None
    sketch_size: int | None = None

    @property
    def stream(self) -> bool:
        return self.stream_chunk is not None


#: label-noise probability of every generated set (train and hold-out)
PERTURBATION = 0.05
HOLDOUT_RECORDS = 100_000
#: the --seconds budget never cuts the timed fits below this
MIN_REPEATS = 5
#: deploy rounds: each generates the data, compiles, publishes, starts a
#: fresh server, serves one latency block and one bulk block, and shuts
#: it down; setup_s and the serving metrics are medians over the rounds
SERVE_ROUNDS = 4
#: offline ``predict_matrix`` calls over the hold-out set
PREDICT_CALLS = 30
#: closed-loop client connections of the serve stage
CLIENTS = 2
#: phase A, per round: CLIENTS × LATENCY_REQUESTS single-record requests
LATENCY_REQUESTS = 350
#: phase B, per round: CLIENTS × BULK_REQUESTS requests of BULK_RECORDS
BULK_REQUESTS = 150
BULK_RECORDS = 512
#: stream_p2 passes when its hold-out accuracy is within this of a batch
#: fit at the same max_depth (the bar bench_streaming.py uses)
STREAM_ACCURACY_BAR = 0.02

WORKLOADS = {w.name: w for w in (
    Workload("serial_deep", "F6", 60_000, 12, "thread", 1, repeats=12),
    Workload("process_deep_p2", "F6", 60_000, 12, "process", 2, repeats=9),
    Workload("tcp_shallow_p2", "F7", 100_000, 6, "tcp", 2, repeats=9),
    Workload("stream_p2", "F4", 30_000, 8, "process", 2, repeats=8,
             stream_chunk=3_000, sketch_size=128),
)}

"""The traced pass: a measured phase ledger plus one probe per layer.

Everything here goes through seams the library already has — nothing
under ``src/`` knows about the benchmark:

* ``run_spmd(..., rank_perf=[WallTracker…], trace=TraceCollector())``.
  :class:`WallTracker` is a ``NullPerf`` whose ``clock`` reads
  ``perf_counter()``, so ``repro.core.phases.timed_phase`` books *wall*
  seconds per phase into ``add_phase_time``; the engines deliver
  measured pickled/shm bytes through ``add_transport``, the induction
  loops count levels (epochs) through ``mark_level``, and the
  process/tcp engines ship the rank-side tracker home through
  ``merge_remote``.
* ``TraceEvent.wall_seconds / payload_nbytes / result_nbytes / phase``
  give time inside engine primitives (waiting for peers included) and
  bytes per phase.

Probes call one public function of one layer inside a span; the span
(or, for SPMD probes, a timer inside the ranks) is the measurement.
"""

from __future__ import annotations

import asyncio
import math
import os
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from repro.core import kernels
from repro.core.induction import induce_worker
from repro.core.phases import (
    FINDSPLIT1, FINDSPLIT1_HIST, FINDSPLIT1_VOTE, FINDSPLIT2,
    PERFORMSPLIT1, PERFORMSPLIT2, PRESORT, STREAM_GROW, STREAM_INGEST,
    STREAM_SKETCH, timed_phase,
)
from repro.hashing import DistributedNodeTable
from repro.runtime import (
    CheckpointConfig, NullPerf, TraceCollector, decode_frame, encode_frame,
    logical_ops, reduction, run_spmd,
)
from repro.serving import BatchServer, ModelRegistry, ServingClient
from repro.sort import block_bounds, parallel_sample_sort
from repro.streaming import stream_induce_worker
from repro.streaming.sketch import build_sketch, merge_sketches

from hostref import HostClock
from pipeline import PipelineResult, Server, fit_once, scaled
from spans import SpanLog

__all__ = ["WallTracker", "PHASE_LAYERS", "traced_pass"]

#: algorithm phase → ledger metric prefix (layer = module name); the
#: voted/histogram FindSplitI sub-phases fold into their parent
PHASE_LAYERS = {
    PRESORT: "sort.presort",
    FINDSPLIT1: "core.findsplit1",
    FINDSPLIT1_HIST: "core.findsplit1",
    FINDSPLIT1_VOTE: "core.findsplit1",
    FINDSPLIT2: "core.findsplit2",
    PERFORMSPLIT1: "core.performsplit1",
    PERFORMSPLIT2: "core.performsplit2",
    STREAM_INGEST: "streaming.ingest",
    STREAM_SKETCH: "streaming.sketch",
    STREAM_GROW: "streaming.grow",
}
FINDSPLIT_LAYERS = ("core.findsplit1", "core.findsplit2")


class WallTracker(NullPerf):
    """Per-rank tracker whose clock is the wall clock (see module doc)."""

    def __init__(self):
        self.phase_seconds: Counter = Counter()
        self.pickled_bytes = 0
        self.shm_bytes = 0
        self.levels = 0

    @property
    def clock(self) -> float:
        return perf_counter()

    def add_phase_time(self, name: str, seconds: float) -> None:
        self.phase_seconds[name] += seconds

    def add_transport(self, pickled: int, shared: int,
                      phase: str | None = None) -> None:
        self.pickled_bytes += pickled
        self.shm_bytes += shared

    def mark_level(self, label: object) -> None:
        self.levels += 1

    def merge_remote(self, remote: "WallTracker") -> None:
        self.__dict__.update(remote.__dict__)


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _median_of(fn, calls: int) -> float:
    """Median wall seconds of ``calls`` calls to ``fn()``."""
    times = []
    for _ in range(calls):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


# ----------------------------------------------------------------------
# the phase ledger
# ----------------------------------------------------------------------


@dataclass
class TracedFit:
    """One traced fit through the rank_perf/trace seam."""

    span: object
    norm_seconds: float
    cpu_seconds: float
    trackers: list
    collector: TraceCollector
    tree: object


def _traced_fit(res: PipelineResult, config, clock: HostClock,
                name: str) -> TracedFit:
    w = res.workload
    trackers = [WallTracker() for _ in range(w.n_ranks)]
    collector = TraceCollector()
    if w.stream:
        worker, kwargs = stream_induce_worker, {
            "max_epochs": None, "finalize": True, "fresh_cursor": False}
    else:
        worker, kwargs = induce_worker, {}

    def job():
        cpu0 = _cpu_seconds()
        trees = run_spmd(w.n_ranks, worker, args=(res.train, config),
                         kwargs=kwargs, rank_perf=trackers, trace=collector,
                         backend=w.backend)
        return trees[0], _cpu_seconds() - cpu0

    (tree, cpu), span, norm = clock.run(name, job)
    return TracedFit(span, norm, cpu, trackers, collector, tree)


def _ledger(trackers, collector) -> dict:
    """``{layer: {"wall_s", "coll_s", "bytes"}}`` of one traced fit.

    ``wall_s`` is the slowest rank's time in the phase, ``coll_s`` that
    same rank's time inside engine primitives during it (so
    ``wall_s - coll_s`` is that rank's self time), ``bytes`` rank 0's
    payload + result bytes (an exact count).
    """
    rows = {layer: {"wall_s": 0.0, "coll_s": 0.0, "bytes": 0}
            for layer in PHASE_LAYERS.values()}
    for phase, layer in PHASE_LAYERS.items():
        per_rank = [t.phase_seconds.get(phase, 0.0) for t in trackers]
        slowest = max(range(len(per_rank)), key=per_rank.__getitem__)
        rows[layer]["wall_s"] += per_rank[slowest]
        rows[layer]["coll_s"] += sum(
            ev.wall_seconds for ev in collector.events_of(slowest)
            if ev.phase == phase)
        rows[layer]["bytes"] += sum(
            ev.payload_nbytes + ev.result_nbytes
            for ev in collector.events_of(0) if ev.phase == phase)
    return rows


def _phase_ledger(res: PipelineResult, clock: HostClock, out: dict) -> list:
    w, spans = res.workload, clock.spans
    fit = _traced_fit(res, res.config, clock, "traced_fit")
    span, trackers, collector = fit.span, fit.trackers, fit.collector
    res.checks.record(
        fit.tree.compiled().structure_digest
        == res.tree.compiled().structure_digest,
        "traced fit grew a different tree than the untraced fits")

    rows = _ledger(trackers, collector)
    table, cursor = [], span.start
    for layer, row in rows.items():
        for key, value in row.items():
            out[f"{layer}_{key}"] = value
        phase_span = spans.add(layer, span, cursor, row["wall_s"],
                               aggregate=True)
        spans.add(layer + ".collectives", phase_span, cursor, row["coll_s"],
                  aggregate=True)
        cursor += row["wall_s"]
        spans.add_row("ledger", layer=layer, **row)
        table.append({"layer": layer, **row})
    attributed = sum(row["wall_s"] for row in rows.values())
    out["runtime.unattributed_s"] = span.seconds - attributed
    table.append({"layer": "runtime.unattributed",
                  "wall_s": span.seconds - attributed,
                  "coll_s": 0.0, "bytes": 0})
    table.append({"layer": "traced fit", "wall_s": span.seconds,
                  "coll_s": sum(r["coll_s"] for r in rows.values()),
                  "bytes": sum(r["bytes"] for r in rows.values())})

    events = collector.events_of(0)
    marks = max(t.levels for t in trackers)
    out["core.levels"] = fit.tree.depth + 1 if w.stream else marks
    out["streaming.epochs"] = marks if w.stream else 0
    out["runtime.collectives"] = len(events)
    out["runtime.logical_collectives"] = len(logical_ops(events))
    out["runtime.pickled_bytes"] = sum(t.pickled_bytes for t in trackers)
    out["runtime.shm_bytes"] = sum(t.shm_bytes for t in trackers)
    out["runtime.cpu_s"] = fit.cpu_seconds
    out["runtime.cpu_over_wall"] = \
        fit.cpu_seconds / (span.seconds * w.n_ranks)
    out["runtime.trace_overhead_share"] = \
        fit.norm_seconds / res.end_to_end["fit_wall_s"] - 1.0
    for key in ("levels", "collectives", "logical_collectives"):
        name = ("core." if key == "levels" else "runtime.") + key
        spans.add_row("count", name=name, value=out[name])

    # the same core.strategies layer used differently: voted vs exact
    # FindSplit bytes on the bandwidth-bound workload only
    exact_bytes = sum(rows[layer]["bytes"] for layer in FINDSPLIT_LAYERS)
    if w.name == "tcp_shallow_p2":
        voted = _traced_fit(res, replace(res.config, split_mode="voted"),
                            clock, "traced_fit_voted")
        vrows = _ledger(voted.trackers, voted.collector)
        out["core.strategies.voted_fit_wall_s"] = voted.norm_seconds
        out["core.strategies.voted_findsplit_bytes"] = sum(
            vrows[layer]["bytes"] for layer in FINDSPLIT_LAYERS)
        out["core.strategies.exact_findsplit_bytes"] = exact_bytes
    else:
        out["core.strategies.voted_fit_wall_s"] = 0.0
        out["core.strategies.voted_findsplit_bytes"] = 0
        out["core.strategies.exact_findsplit_bytes"] = 0
    return table


# ----------------------------------------------------------------------
# SPMD probe workers (module level: the process engines pickle by name)
# ----------------------------------------------------------------------


def _noop_worker(comm) -> None:
    return None


def _allreduce_worker(comm, calls: int) -> float:
    value = np.int64(comm.rank)
    comm.barrier()
    times = np.empty(calls)
    for i in range(calls):
        t0 = perf_counter()
        comm.allreduce(value, reduction.SUM)
        times[i] = perf_counter() - t0
    return float(np.median(times))


def _alltoall_worker(comm, rounds: int, nbytes: int) -> float:
    chunks = [np.zeros(nbytes // comm.size // 8) for _ in range(comm.size)]
    comm.barrier()
    times = []
    for _ in range(rounds):
        t0 = perf_counter()
        comm.alltoallv(chunks)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _sample_sort_worker(comm, values, labels, rounds: int) -> float:
    lo, hi = block_bounds(len(values), comm.size, comm.rank)
    rids = np.arange(lo, hi, dtype=np.int64)
    times = []
    for _ in range(rounds):
        comm.barrier()
        t0 = perf_counter()
        parallel_sample_sort(comm, values[lo:hi], labels[lo:hi], rids=rids)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _hashing_worker(comm, n: int, seed: int, rounds: int) -> tuple:
    """Median update / lookup seconds of n/p shuffled keys per rank; the
    phase tags let a traced call attribute the bytes."""
    lo, hi = block_bounds(n, comm.size, comm.rank)
    keys = np.random.default_rng(seed).permutation(n)[lo:hi]
    values = (keys % 7).astype(np.int32)
    table = DistributedNodeTable(comm, n)
    update, lookup = [], []
    for _ in range(rounds):
        comm.barrier()
        t0 = perf_counter()
        with timed_phase(comm, "update"):
            table.update(keys, values)
        t1 = perf_counter()
        with timed_phase(comm, "lookup"):
            got = table.lookup(keys)
        t2 = perf_counter()
        update.append(t1 - t0)
        lookup.append(t2 - t1)
        if not np.array_equal(got, values):
            raise AssertionError("node table lookup returned wrong values")
    return statistics.median(update), statistics.median(lookup)


def _runtime_probes(res: PipelineResult, spans: SpanLog, out: dict) -> None:
    w = res.workload
    p, backend = w.n_ranks, w.backend
    with spans.span("probe:runtime.spawn"):
        out["runtime.spawn_s"] = _median_of(
            lambda: run_spmd(p, _noop_worker, backend=backend), 5)
    with spans.span("probe:runtime.allreduce"):
        out["runtime.allreduce_us"] = 1e6 * max(run_spmd(
            p, _allreduce_worker, args=(scaled(2_000, res.scale, 50),),
            backend=backend))
    with spans.span("probe:runtime.alltoall"):
        nbytes = 8 << 20
        out["runtime.alltoall_mb_per_s"] = nbytes / 1e6 / max(run_spmd(
            p, _alltoall_worker, args=(10, nbytes), backend=backend))
    with spans.span("probe:runtime.frame_roundtrip"):
        rows = res.matrix[:512]
        out["runtime.frame_roundtrip_us"] = 1e6 * _median_of(
            lambda: decode_frame(encode_frame(rows)),
            scaled(1_000, res.scale, 20))

    train = res.train
    column = train.schema.continuous_indices[0]
    with spans.span("probe:sort.sample_sort"):
        out["sort.sample_sort_s"] = max(run_spmd(
            p, _sample_sort_worker,
            args=(train.columns[column], train.labels, 3), backend=backend))

    n = train.n_records
    with spans.span("probe:hashing"):
        timed = run_spmd(p, _hashing_worker, args=(n, res.seed, 3),
                         backend=backend)
        out["hashing.update_s"] = max(t[0] for t in timed)
        out["hashing.lookup_s"] = max(t[1] for t in timed)
        collector = TraceCollector()
        run_spmd(p, _hashing_worker, args=(n, res.seed, 1),
                 backend=backend, trace=collector)
        out["hashing.update_bytes"] = sum(
            ev.payload_nbytes + ev.result_nbytes
            for ev in collector.events_of(0) if ev.phase == "update")


# ----------------------------------------------------------------------
# single-process probes
# ----------------------------------------------------------------------


def _kernel_probes(res: PipelineResult, spans: SpanLog, out: dict) -> None:
    """The four fast-mode kernels on n/p-entry arrays cut into as many
    segments as the tree's widest level has nodes."""
    n = res.train.n_records // res.workload.n_ranks
    m = max(Counter(node.depth for node in res.tree.nodes()).values())
    rng = np.random.default_rng(res.seed)
    labels = rng.integers(0, 2, n).astype(np.int32)
    offsets = np.concatenate(
        ([0], np.sort(rng.integers(0, n + 1, m - 1)), [n])).astype(np.int64)
    nodes = np.repeat(np.arange(m, dtype=np.int64), np.diff(offsets))
    values = rng.random(n)
    values = values[np.lexsort((values, nodes))]
    ones = np.bincount(nodes, weights=labels, minlength=m).astype(np.int64)
    totals = np.stack([np.diff(offsets) - ones, ones], axis=1)
    every_node = np.ones(m, dtype=bool)
    no_pred, pred_val = np.zeros(m, dtype=bool), np.zeros(m)
    new_nodes = rng.integers(-1, 2 * m, n)
    cubes = rng.integers(0, 50, (m, 20, 2))

    within = kernels.segment_class_prefix(labels, offsets, 2, nodes=nodes)

    def split_scan():
        valid = kernels.boundary_valid_mask(
            values, nodes, offsets, every_node, no_pred, pred_val)
        vidx = np.flatnonzero(valid)
        v_nodes = nodes.take(vidx)
        scores = kernels.split_scores(
            within.take(vidx, axis=0), totals.take(v_nodes, axis=0), "gini")
        kernels.segment_argmin(v_nodes, scores, values.take(vidx))

    with kernels.forced_kernel_mode("fast"):
        for name, fn in (
            ("class_prefix", lambda: kernels.segment_class_prefix(
                labels, offsets, 2, nodes=nodes)),
            ("split_scan", split_scan),
            ("regroup", lambda: kernels.stable_regroup(new_nodes, 2 * m)),
            ("multiway_scores",
             lambda: kernels.multiway_scores(cubes, "gini")),
        ):
            with spans.span(f"probe:core.kernels.{name}"):
                out[f"core.kernels.{name}_s"] = _median_of(fn, 7)


def _sketch_probes(res: PipelineResult, spans: SpanLog, out: dict) -> None:
    train = res.train
    chunk = res.config.resolved_stream_chunk_records()
    capacity = res.config.resolved_sketch_size()
    column = train.columns[train.schema.continuous_indices[0]]
    n_classes = train.schema.n_classes
    halves = [(column[i * chunk:(i + 1) * chunk],
               train.labels[i * chunk:(i + 1) * chunk]) for i in (0, 1)]
    with spans.span("probe:streaming.build_sketch"):
        out["streaming.build_sketch_s"] = _median_of(
            lambda: build_sketch(*halves[0], n_classes, capacity), 7)
    a, b = (build_sketch(v, y, n_classes, capacity) for v, y in halves)
    with spans.span("probe:streaming.merge_sketches"):
        out["streaming.merge_sketches_s"] = _median_of(
            lambda: merge_sketches(a, b), 7)


def _tree_probes(res: PipelineResult, spans: SpanLog, out: dict) -> None:
    compiled = res.tree.compiled()
    matrix = res.matrix
    for batch, calls in ((1, 2_000), (64, 500), (4096, 50)):
        calls = scaled(calls, res.scale, 5)
        starts = iter(np.arange(calls) * batch % (len(matrix) - batch + 1))

        def apply():
            lo = next(starts)
            compiled.predict_matrix(matrix[lo:lo + batch])

        with spans.span(f"probe:tree.apply_b{batch}"):
            out[f"tree.apply_b{batch}_records_per_s"] = \
                batch / _median_of(apply, calls)


async def _inproc_latencies(registry: ModelRegistry, matrix,
                            in_flight: int, requests: int) -> list:
    server = BatchServer(registry)
    await server.start()
    try:
        async def client(c: int) -> list:
            return [(await server.predict(matrix[(c * requests + i)
                                                 % len(matrix)])).latency
                    for i in range(requests)]

        per_client = await asyncio.gather(
            *[client(c) for c in range(in_flight)])
    finally:
        await server.stop()
    return [x for per in per_client for x in per]


def _serving_probes(res: PipelineResult, spans: SpanLog, out: dict,
                    workdir: str, src_dir: str) -> None:
    registry_dir = os.path.join(workdir, "registry-probe")
    registry = ModelRegistry(registry_dir)
    version = registry.publish(res.tree, activate=True).version
    with spans.span("probe:serving.registry_load"):
        out["serving.registry_load_s"] = _median_of(
            lambda: ModelRegistry(registry_dir).load(version), 5)
    with spans.span("probe:serving.inproc"):
        latencies = asyncio.run(
            _inproc_latencies(registry, res.matrix, 2,
                              scaled(1_000, res.scale, 20)))
        out["serving.inproc_p50_ms"] = 1e3 * statistics.median(latencies)
    server = Server(registry_dir, src_dir)
    try:
        server.start()
        with spans.span("probe:serving.ping"), \
                ServingClient("127.0.0.1", server.port) as client:
            out["serving.ping_rtt_ms"] = 1e3 * _median_of(
                client.ping, scaled(1_000, res.scale, 20))
    finally:
        res.checks.record(server.stop() == 0,
                          "probe server did not exit 0 after shutdown")


def _fit_probes(res: PipelineResult, clock: HostClock, out: dict,
                workdir: str) -> None:
    """Whole-fit A/B probes: pricing on/off, p=1 reference, checkpoint.
    Host-speed-normalised like ``fit_wall_s``, which they are set
    against."""
    w, config, train = res.workload, res.config, res.train
    fit_wall = res.end_to_end["fit_wall_s"]

    priced, unpriced = [], []
    for _ in range(3):
        result, _, norm = clock.run(
            "probe:perfmodel.priced_fit", lambda: fit_once(w, config, train))
        priced.append(norm)
        _, _, norm = clock.run(
            "probe:perfmodel.unpriced_fit",
            lambda: fit_once(w, config, train, machine=None))
        unpriced.append(norm)
    out["perfmodel.pricing_overhead_share"] = \
        statistics.median(priced) / statistics.median(unpriced) - 1.0
    out["perfmodel.modeled_parallel_time_s"] = result.stats.parallel_time
    out["perfmodel.modeled_memory_mb"] = \
        result.stats.memory_per_rank_max / 2 ** 20

    # T1 / (p × Tp): T1 is a p=1 thread fit of the same problem, measured
    # here; on serial_deep that is the priced fits above (an A/A row)
    if (w.backend, w.n_ranks) == ("thread", 1):
        serial = priced
    else:
        serial = [clock.run(
            "probe:runtime.serial_fit", lambda: fit_once(
                w, config, train, n_ranks=1, backend="thread"))[2]
            for _ in range(3)]
    out["runtime.parallel_efficiency"] = \
        statistics.median(serial) / (w.n_ranks * fit_wall)

    if w.name == "process_deep_p2":
        _, _, norm = clock.run(
            "probe:runtime.checkpoint_fit", lambda: fit_once(
                w, config, train, checkpoint=CheckpointConfig(
                    os.path.join(workdir, "checkpoint"), every=2)))
        out["runtime.checkpoint_overhead_share"] = norm / fit_wall - 1.0
    else:
        out["runtime.checkpoint_overhead_share"] = 0.0


def traced_pass(res: PipelineResult, spans: SpanLog, workdir: str,
                src_dir: str) -> tuple[dict, list]:
    """Every per-layer metric the untraced run did not already measure,
    plus the phase table (rows sum to the traced fit's wall)."""
    out = dict(res.layer)
    clock = HostClock(spans)
    table = _phase_ledger(res, clock, out)
    _runtime_probes(res, spans, out)
    _kernel_probes(res, spans, out)
    _sketch_probes(res, spans, out)
    _tree_probes(res, spans, out)
    _serving_probes(res, spans, out, workdir, src_dir)
    _fit_probes(res, clock, out, workdir)
    bad = [k for k, v in out.items() if not math.isfinite(v)]
    res.checks.record(not bad, f"non-finite per-layer metrics: {bad}")
    return out, table

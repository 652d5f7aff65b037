"""The untraced pipeline: generate → fit ×R → verify → deploy → score.

This is what produces every end-to-end metric.  Each stage runs inside a
:class:`~spans.SpanLog` span (a ``perf_counter`` pair — the benchmark's
own timer, not program-side tracing), every output is checked, and every
checked operation lands in :class:`Checks`, which is where
``failed_share`` and the driver's ``attempted`` / ``failed`` come from.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro import CRAY_T3D, ScalParC, induce_serial, paper_dataset
from repro.core import InductionConfig
from repro.serving import ModelRegistry, ServingClient, ServingClientError
from repro.tree import compile_tree

from hostref import HostClock
from spans import SpanLog
from workloads import (
    BULK_RECORDS, BULK_REQUESTS, CLIENTS, HOLDOUT_RECORDS, LATENCY_REQUESTS,
    MIN_REPEATS, PERTURBATION, PREDICT_CALLS, SERVE_ROUNDS,
    STREAM_ACCURACY_BAR, Workload,
)

__all__ = ["Checks", "PipelineResult", "Server", "run_pipeline",
           "closed_loop", "fit_once", "scaled"]

#: share of --seconds the timed fits may use before the loop stops early
FIT_BUDGET_SHARE = 0.6
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 30.0


@dataclass
class Checks:
    """Attempted / failed operation ledger (fits, predict calls, serve
    requests, leak checks)."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class PipelineResult:
    workload: Workload
    seed: int
    scale: float
    config: InductionConfig
    train: object
    tree: object
    #: hold-out feature matrix
    matrix: np.ndarray
    checks: Checks
    #: end-to-end metric values by name
    end_to_end: dict
    #: per-layer values the untraced run already measures
    layer: dict
    #: the readings behind the medians (raw and normalised)
    samples: dict


def scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(round(count * scale)))


def fit_once(w: Workload, config: InductionConfig, train, *,
             n_ranks: int | None = None, backend: str | None = None,
             machine=CRAY_T3D, trace=None, checkpoint=None):
    """One ``ScalParC(...).fit`` / ``.fit_stream`` call as a user makes
    it: default machine pricing, the workload's rank count and backend,
    unless a probe overrides one of them."""
    clf = ScalParC(n_ranks or w.n_ranks, config, machine=machine,
                   backend=backend or w.backend)
    fit = clf.fit_stream if w.stream else clf.fit
    return fit(train, trace=trace, checkpoint=checkpoint)


class Server:
    """One ``python -m repro serve`` subprocess over a registry."""

    def __init__(self, registry_dir: str, src_dir: str):
        self.registry_dir = registry_dir
        self.port_file = registry_dir + ".port"
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self) -> None:
        """Spawn and return once the first ``ping`` is answered."""
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--registry", self.registry_dir, "--port-file", self.port_file],
            env=self.env, stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before "
                    f"binding a port")
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("server did not bind a port in time")
            time.sleep(0.002)
        with open(self.port_file, encoding="utf-8") as fh:
            self.port = int(fh.read().strip())
        with ServingClient("127.0.0.1", self.port) as client:
            client.ping()

    def stop(self) -> int | None:
        """``shutdown`` op, then wait; returns the exit code (None when
        the server had to be killed)."""
        if self.proc is None:
            return None
        try:
            with ServingClient("127.0.0.1", self.port) as client:
                client.shutdown()
            return self.proc.wait(timeout=SERVER_STOP_TIMEOUT)
        except (OSError, ServingClientError, subprocess.TimeoutExpired):
            self.kill()
            return None
        finally:
            self.proc = None
            try:
                os.unlink(self.port_file)
            except OSError:
                pass

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def closed_loop(port: int, plans: list, digest: str, checks: Checks,
                what: str) -> tuple[list[float], float]:
    """Drive ``len(plans)`` closed-loop connections, one thread each.

    ``plans[c]`` is that client's list of ``(rows, expected_labels)``
    requests, sent back to back.  Every reply's labels and digest are
    checked.  Returns the per-request latencies (seconds, failed requests
    excluded) and the wall from the common start to the last reply.
    """
    latencies: list[list[float]] = [[] for _ in plans]
    outcomes: list[list[bool]] = [[] for _ in plans]
    gate = threading.Barrier(len(plans) + 1)

    def client_loop(c: int) -> None:
        try:
            client = ServingClient("127.0.0.1", port)
        except OSError:
            gate.wait()
            outcomes[c].extend([False] * len(plans[c]))
            return
        with client:
            gate.wait()
            for rows, expected in plans[c]:
                t0 = time.perf_counter()
                try:
                    reply = client.predict(rows)
                except (OSError, ServingClientError):
                    outcomes[c].append(False)
                    continue
                latencies[c].append(time.perf_counter() - t0)
                outcomes[c].append(
                    reply["digest"] == digest
                    and np.array_equal(reply["labels"], expected))

    threads = [threading.Thread(target=client_loop, args=(c,))
               for c in range(len(plans))]
    for t in threads:
        t.start()
    gate.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    for c, results in enumerate(outcomes):
        for i, ok in enumerate(results):
            checks.record(ok, f"{what}: client {c} request {i} got a wrong "
                              f"or no reply")
    return [x for per in latencies for x in per], wall


def _request_plans(matrix, labels, per_client: int, records: int,
                   offset: int) -> list:
    """``CLIENTS`` disjoint request lists over the hold-out rows."""
    n = len(matrix)
    plans = []
    for c in range(CLIENTS):
        plan = []
        for i in range(per_client):
            lo = (offset + (c * per_client + i) * records) % (n - records + 1)
            rows = matrix[lo] if records == 1 else matrix[lo:lo + records]
            plan.append((rows, labels[lo:lo + records]))
        plans.append(plan)
    return plans


def _deploy_and_serve(r: int, tree, matrix, labels, scale: float,
                      clock: HostClock, checks: Checks, workdir: str,
                      src_dir: str) -> dict:
    """One deploy round against a fresh server instance.

    compile + publish + spawn-to-first-ping (the deploy share of
    ``setup_s``, bracketed by host reference readings like every other
    CPU-bound timing), then one latency block (phase A: single-record
    requests) and one bulk block (phase B) from ``CLIENTS`` closed-loop
    connections, then ``shutdown``.  Serving numbers differ by a
    persistent ± 15 % from one server process to the next (memory layout,
    core placement), so every round uses its own instance and the
    pipeline reports medians over rounds.
    """
    spans = clock.spans
    registry_dir = os.path.join(workdir, f"registry-{r}")
    server = Server(registry_dir, src_dir)

    def deploy():
        with spans.span("compile") as compile_span:
            compile_tree(tree)
        with spans.span("publish") as publish_span:
            info = ModelRegistry(registry_dir).publish(tree, activate=True)
        with spans.span("server_start") as start_span:
            server.start()
        return info, compile_span, publish_span, start_span

    try:
        (info, compile_span, publish_span, start_span), deploy_span, \
            deploy_norm = clock.run("deploy", deploy, round=r)
        with ServingClient("127.0.0.1", server.port) as admin:
            before = admin.stats()["stats"]
            per_client = scaled(LATENCY_REQUESTS, scale, 10)
            plans = _request_plans(matrix, labels, per_client, 1,
                                   r * CLIENTS * per_client)
            with spans.span("serve_latency", round=r):
                latencies, _ = closed_loop(
                    server.port, plans, info.compiled_digest, checks,
                    f"serve A round {r}")
            after_a = admin.stats()["stats"]
            per_client = scaled(BULK_REQUESTS, scale, 5)
            records = min(BULK_RECORDS, len(matrix))
            plans = _request_plans(matrix, labels, per_client, records,
                                   r * CLIENTS * per_client * records)
            with spans.span("serve_bulk", round=r):
                _, wall = closed_loop(
                    server.port, plans, info.compiled_digest, checks,
                    f"serve B round {r}")
            after_b = admin.stats()["stats"]
    finally:
        with spans.span("teardown", round=r):
            exit_code = server.stop()
    checks.record(exit_code == 0,
                  f"round {r}: server exited with {exit_code} after shutdown")

    def mean_batch(a: dict, b: dict) -> float:
        batches = b["n_batches"] - a["n_batches"]
        return (b["n_records"] - a["n_records"]) / batches if batches \
            else 0.0

    return {
        "deploy": (deploy_span.seconds, deploy_norm),
        "compile_s": compile_span.seconds,
        "publish_s": publish_span.seconds,
        "start_s": start_span.seconds,
        "latencies": latencies,
        "p50_ms": 1e3 * statistics.median(latencies)
        if latencies else float("inf"),
        "bulk_records_per_s": CLIENTS * per_client * records / wall,
        "batch_a": mean_batch(before, after_a),
        "batch_b": mean_batch(after_a, after_b),
        "kernel_records_per_s": after_b["records_per_second"],
    }


def run_pipeline(w: Workload, seed: int, seconds: float, scale: float,
                 repeats: int | None, spans: SpanLog, workdir: str,
                 src_dir: str, break_oracle: bool = False) -> PipelineResult:
    checks = Checks()
    config = InductionConfig(
        max_depth=w.max_depth, stream_chunk_records=(
            scaled(w.stream_chunk, scale, 200) if w.stream else None),
        sketch_size=w.sketch_size,
    )
    n_train = scaled(w.n_train, scale, 2_000)
    n_holdout = scaled(HOLDOUT_RECORDS, scale, 5_000)

    # -- generate (counted in setup_s) -------------------------------------
    clock = HostClock(spans)

    def generate():
        return (paper_dataset(n_train, w.function, seed=seed,
                              perturbation=PERTURBATION),
                paper_dataset(n_holdout, w.function, seed=seed + 1,
                              perturbation=PERTURBATION))

    gens = []
    for _ in range(SERVE_ROUNDS):
        (train, holdout), span, norm = clock.run("generate", generate)
        gens.append((span.seconds, norm))
    matrix = holdout.features_matrix()

    # -- oracle (the benchmark's own cost, not in setup_s) -------------------
    with spans.span("oracle") as oracle_span:
        if w.stream:
            batch = ScalParC(1, replace(config, stream_chunk_records=None,
                                        sketch_size=None),
                             machine=None, backend="thread").fit(train)
            oracle_accuracy = float(np.mean(
                batch.tree.compiled().predict_matrix(matrix)
                == holdout.labels))
            oracle_digest = None
        else:
            oracle_digest = induce_serial(
                train, config).compiled().structure_digest
    if break_oracle:
        oracle_digest, oracle_accuracy = "0" * 16, 2.0

    # -- fit ×R ------------------------------------------------------------
    with spans.span("warmup_fit") as warmup_span:
        fit_once(w, config, train)
    max_repeats = repeats if repeats is not None else w.repeats
    min_repeats = repeats if repeats is not None else MIN_REPEATS
    fits, digests = [], []
    t_fits = time.perf_counter()
    while len(fits) < max_repeats:
        if len(fits) >= min_repeats and \
                time.perf_counter() - t_fits >= FIT_BUDGET_SHARE * seconds:
            break
        result, span, norm = clock.run(
            "fit", lambda: fit_once(w, config, train), repeat=len(fits))
        fits.append((span.seconds, norm))
        digests.append(result.tree.compiled().structure_digest)
    tree = result.tree
    usage = resource.getrusage(
        resource.RUSAGE_SELF if w.backend == "thread"
        else resource.RUSAGE_CHILDREN)
    peak_rss_mb = usage.ru_maxrss / 1024.0

    # -- verify ------------------------------------------------------------
    with spans.span("verify"):
        compiled = tree.compiled()
        labels = compiled.predict_matrix(matrix)
        accuracy = float(np.mean(labels == holdout.labels))
        for i, digest in enumerate(digests):
            if w.stream:
                ok = digest == digests[0] and \
                    accuracy >= oracle_accuracy - STREAM_ACCURACY_BAR
                why = (f"fit {i}: digest {digest} vs first {digests[0]}, "
                       f"accuracy {accuracy:.4f} vs batch "
                       f"{oracle_accuracy:.4f}")
            else:
                ok = digest == oracle_digest
                why = (f"fit {i}: digest {digest} differs from the serial "
                       f"oracle's {oracle_digest}")
            checks.record(ok, why)

    # -- offline predict -----------------------------------------------------
    predicts = []
    for i in range(PREDICT_CALLS):
        out, span, norm = clock.run(
            "predict", lambda: compiled.predict_matrix(matrix))
        predicts.append((span.seconds, norm))
        checks.record(np.array_equal(out, labels),
                      f"predict call {i} disagrees with the first")
    checks.record(np.array_equal(tree.predict(holdout), labels),
                  "predict_matrix disagrees with DecisionTree.predict")

    # -- deploy + served predict, once per fresh server instance -------------
    rounds = [_deploy_and_serve(r, tree, matrix, labels, scale, clock,
                                checks, workdir, src_dir)
              for r in range(SERVE_ROUNDS)]
    setups = [(g[0] + r["deploy"][0], g[1] + r["deploy"][1])
              for g, r in zip(gens, rounds)]
    pooled = [x for r in rounds for x in r["latencies"]]

    def round_median(key: str) -> float:
        return statistics.median(r[key] for r in rounds)

    def median_of(pairs: list, column: int) -> float:
        return statistics.median(pair[column] for pair in pairs)

    # column 0 is the raw reading, column 1 the host-speed-normalised one
    end_to_end = {
        "fit_wall_s": median_of(fits, 1),
        "peak_rss_rank_mb": peak_rss_mb,
        "holdout_accuracy": accuracy,
        "predict_records_per_s": len(matrix) / median_of(predicts, 1),
        "serve_p50_ms": round_median("p50_ms"),
        "setup_s": median_of(setups, 1),
    }
    layer = {
        "datagen.generate_s": median_of(gens, 0),
        "tree.compile_s": round_median("compile_s"),
        "tree.nodes": tree.n_nodes,
        "tree.depth": tree.depth,
        "core.tree_nodes": tree.n_nodes,
        "serving.registry_publish_s": round_median("publish_s"),
        "serving.server_start_s": round_median("start_s"),
        "serving.p99_ms": 1e3 * float(np.quantile(pooled, 0.99))
        if pooled else float("inf"),
        "serving.bulk_records_per_s": round_median("bulk_records_per_s"),
        "serving.mean_batch_size_a": round_median("batch_a"),
        "serving.mean_batch_size_b": round_median("batch_b"),
        "serving.kernel_records_per_s": round_median("kernel_records_per_s"),
        "bench.oracle_s": oracle_span.seconds,
        "bench.warmup_fit_s": warmup_span.seconds,
        "bench.host_slowdown": clock.slowdown(),
        "bench.fit_wall_raw_s": median_of(fits, 0),
        "bench.predict_raw_records_per_s":
            len(matrix) / median_of(predicts, 0),
        "bench.setup_raw_s": median_of(setups, 0),
    }
    samples = {
        "fit_wall_s": fits,
        "predict_s": predicts,
        "serve_p50_ms": [r["p50_ms"] for r in rounds],
        "serve_p99_pooled_n": len(pooled),
        "serve_bulk_records_per_s":
            [r["bulk_records_per_s"] for r in rounds],
        "setup_s": setups,
    }
    return PipelineResult(w, seed, scale, config, train, tree, matrix,
                          checks, end_to_end, layer, samples)

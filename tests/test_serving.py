"""Serving stack: registry sealing, hot-swap atomicity, micro-batching.

Covers the three serving layers end to end: digest-sealed artifact
publishing and typed rejection of corrupt/partial versions
(:mod:`repro.serving.registry`), the asyncio micro-batching engine with
lease-per-batch hot-swap atomicity (:mod:`repro.serving.server`), and
the framed-TCP front end plus the publish/serve/query CLI round trip.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import induce_serial
from repro.datagen import paper_dataset
from repro.serving import (
    BatchServer,
    CURRENT_POINTER,
    ModelArtifactError,
    ModelNotFoundError,
    ModelRegistry,
    RegistryError,
    ServerConfig,
    ServerStoppedError,
    ServingClient,
    serve,
)
from repro.tree import predict_columns, predict_proba_columns, to_dict


@pytest.fixture(scope="module")
def trees():
    """Two distinct small trees (v1/v2 material) plus a scoring batch."""
    t1 = induce_serial(paper_dataset(600, "F2", seed=3))
    t2 = induce_serial(paper_dataset(600, "F5", seed=4))
    test = paper_dataset(400, "F2", seed=99)
    return t1, t2, test


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


def test_publish_load_round_trip(tmp_path, trees):
    t1, _, test = trees
    reg = ModelRegistry(tmp_path)
    info = reg.publish(t1, meta={"note": "first"})
    assert info.version == 1
    assert reg.versions() == [1]
    assert reg.describe(1).meta == {"note": "first"}
    assert reg.describe(1).compiled_digest == info.compiled_digest

    model = reg.load(1)
    assert model.version == 1
    assert model.digest == t1.compiled().structure_digest
    assert to_dict(model.tree) == to_dict(t1)
    np.testing.assert_array_equal(
        model.compiled.predict_columns(test.columns),
        predict_columns(t1, test.columns),
    )

    # versions are append-only and monotonically numbered
    assert reg.publish(t1).version == 2
    assert reg.versions() == [1, 2]


def test_missing_version_and_no_active_model(tmp_path, trees):
    reg = ModelRegistry(tmp_path)
    with pytest.raises(ModelNotFoundError):
        reg.load(7)
    with pytest.raises(ModelNotFoundError):
        reg.current()
    assert reg.current_version_on_disk() is None
    assert reg.versions() == []


def test_corrupt_payload_rejected_and_never_swapped_in(tmp_path, trees):
    """A digest-corrupted artifact raises the typed error from both
    load() and activate(), and activate() leaves `current` untouched."""
    t1, t2, _ = trees
    reg = ModelRegistry(tmp_path)
    reg.publish(t1, activate=True)
    info = reg.publish(t2)

    payload = Path(info.path) / "model.json"
    blob = bytearray(payload.read_bytes())
    blob[len(blob) // 2] ^= 0x01                      # single bit flip
    payload.write_bytes(bytes(blob))

    with pytest.raises(ModelArtifactError):
        reg.load(2)
    with pytest.raises(ModelArtifactError):
        reg.activate(2)
    assert reg.current().version == 1                 # old model intact


#: ``tests/fixtures/model_artifact_v0001``: a published version written
#: by ``ModelRegistry.publish`` (ScalParC, p = 2, F2, 300 records, seed 1,
#: max_depth 3, 30 nodes) — the on-disk model format, pinned
FIXTURE_DIGEST = "8368954bce4746f70377a3ef732ee925"


def _committed_artifact(root: Path) -> ModelRegistry:
    import shutil

    fixture = Path(__file__).resolve().parent / "fixtures"
    shutil.copytree(fixture / "model_artifact_v0001", root / "v0001")
    return ModelRegistry(root)


def test_committed_model_artifact_loads_with_its_pinned_digest(tmp_path):
    model = _committed_artifact(tmp_path).load(1)
    assert model.digest == FIXTURE_DIGEST
    assert model.compiled.structure_digest == FIXTURE_DIGEST
    assert model.tree.n_nodes == 30 and model.info.meta["records"] == 300
    test = paper_dataset(200, "F2", seed=2)
    np.testing.assert_array_equal(model.compiled.predict_columns(test.columns),
                                  model.tree.predict(test))


def test_committed_model_artifact_with_a_flipped_byte_refuses(tmp_path):
    reg = _committed_artifact(tmp_path)
    payload = tmp_path / "v0001" / "model.json"
    blob = bytearray(payload.read_bytes())
    blob[len(blob) // 3] ^= 0x20
    payload.write_bytes(bytes(blob))
    with pytest.raises(ModelArtifactError, match="rejected"):
        reg.load(1)


def test_torn_publish_is_invisible(tmp_path, trees):
    """A version directory without a sealed manifest (crash between the
    payload write and the manifest write) is skipped entirely."""
    t1, _, _ = trees
    reg = ModelRegistry(tmp_path)
    reg.publish(t1)
    torn = tmp_path / "v0002"
    torn.mkdir()
    (torn / "model.json").write_text(json.dumps(to_dict(t1)))
    assert reg.versions() == [1]
    with pytest.raises(ModelNotFoundError):
        reg.load(2)
    assert reg.publish(t1).version == 2               # slot gets reused


def test_malformed_manifest_rejected(tmp_path, trees):
    t1, _, _ = trees
    reg = ModelRegistry(tmp_path)
    info = reg.publish(t1)
    manifest = Path(info.path) / "manifest.json"

    manifest.write_text("{ not json")
    with pytest.raises(ModelArtifactError, match="unreadable"):
        reg.load(1)

    manifest.write_text(json.dumps({"format": 999}))
    with pytest.raises(ModelArtifactError, match="format"):
        reg.load(1)

    manifest.write_text(json.dumps({"format": 1, "version": 1}))
    with pytest.raises(ModelArtifactError, match="missing"):
        reg.load(1)


def test_corrupt_current_pointer_rejected(tmp_path, trees):
    t1, _, _ = trees
    reg = ModelRegistry(tmp_path)
    reg.publish(t1, activate=True)
    (tmp_path / CURRENT_POINTER).write_text("not json at all")
    fresh = ModelRegistry(tmp_path)
    with pytest.raises(ModelArtifactError):
        fresh.current()


def test_activate_swaps_in_process_and_on_disk(tmp_path, trees):
    t1, t2, _ = trees
    reg = ModelRegistry(tmp_path)
    reg.publish(t1, activate=True)
    assert reg.current().version == 1
    assert reg.current_version_on_disk() == 1

    reg.publish(t2, activate=True)
    assert reg.current().version == 2
    assert reg.current_version_on_disk() == 2
    assert reg.current().digest == t2.compiled().structure_digest


def test_refresh_converges_across_registry_instances(tmp_path, trees):
    """Cross-process hot-swap: a second registry instance adopts the
    pointer on first use (not a swap) and swaps when it moves."""
    t1, t2, _ = trees
    writer = ModelRegistry(tmp_path)
    reader = ModelRegistry(tmp_path)
    writer.publish(t1, activate=True)

    assert reader.refresh() is False          # first adoption, not a swap
    assert reader.current().version == 1
    assert reader.refresh() is False          # pointer unchanged: one stat

    writer.publish(t2, activate=True)
    assert reader.refresh() is True           # pointer moved: real swap
    assert reader.current().version == 2


def test_lease_counting_and_drain(tmp_path, trees):
    t1, _, _ = trees
    reg = ModelRegistry(tmp_path)
    model = reg.publish(t1, activate=True) and reg.current()
    assert model.leases == 0
    with model.lease() as held:
        assert held is model
        assert model.leases == 1
        with pytest.raises(RegistryError, match="outstanding leases"):
            reg.drain(model, timeout=0.05)
    assert model.leases == 0
    reg.drain(model, timeout=0.05)            # drained: returns at once
    with pytest.raises(RegistryError, match="release"):
        model.release()


# ----------------------------------------------------------------------
# micro-batching server
# ----------------------------------------------------------------------


def test_batch_server_matches_direct_prediction(tmp_path, trees):
    t1, _, test = trees
    reg = ModelRegistry(tmp_path)
    info = reg.publish(t1, activate=True)
    rows = test.features_matrix()

    async def scenario():
        server = BatchServer(reg, ServerConfig(max_batch=64, workers=2))
        await server.start()
        try:
            result = await server.predict(rows, proba=True)
            single = await server.predict(rows[0])    # 1-D row promotion
        finally:
            await server.stop()
        return result, single

    result, single = asyncio.run(scenario())
    np.testing.assert_array_equal(
        result.labels, predict_columns(t1, test.columns))
    assert np.array_equal(
        result.proba, predict_proba_columns(t1, test.columns))
    assert (result.version, result.digest) == (1, info.compiled_digest)
    assert result.latency > 0
    assert single.labels.shape == (1,)
    assert single.proba is None


def test_batch_server_coalesces_concurrent_requests(tmp_path, trees):
    """A burst of small concurrent requests shares kernel batches: far
    fewer batches than requests, every answer still per-request."""
    t1, _, test = trees
    reg = ModelRegistry(tmp_path)
    reg.publish(t1, activate=True)
    rows = test.features_matrix()
    expected = predict_columns(t1, test.columns)
    n_requests = 64

    async def scenario():
        server = BatchServer(
            reg, ServerConfig(max_batch=1024, max_delay=0.05))
        await server.start()
        try:
            results = await asyncio.gather(*[
                server.predict(rows[i:i + 4]) for i in range(n_requests)
            ])
        finally:
            await server.stop()
        return results, server.stats

    results, stats = asyncio.run(scenario())
    for i, result in enumerate(results):
        np.testing.assert_array_equal(result.labels, expected[i:i + 4])
    assert stats.n_requests == n_requests
    assert stats.n_records == 4 * n_requests
    assert stats.n_batches < n_requests           # real coalescing
    assert stats.mean_batch_size() > 4
    assert stats.latency_quantile(0.5) <= stats.latency_quantile(0.99)
    snapshot = stats.snapshot()
    assert snapshot["n_errors"] == 0
    assert snapshot["records_per_second"] > 0
    assert "latency" in stats.describe()


def test_fixed_servable_model_source(tmp_path, trees):
    t1, _, test = trees
    reg = ModelRegistry(tmp_path)
    reg.publish(t1, activate=True)
    model = reg.current()

    async def scenario():
        server = BatchServer(model, ServerConfig(max_delay=0.0))
        await server.start()
        try:
            return await server.predict(test.features_matrix())
        finally:
            await server.stop()

    result = asyncio.run(scenario())
    np.testing.assert_array_equal(
        result.labels, predict_columns(t1, test.columns))
    assert model.leases == 0                      # batch lease released


def test_hot_swap_is_atomic_under_load(tmp_path, trees):
    """The acceptance scenario: requests flood an in-flight server while
    a new version is published and activated.  Every response must name
    a (version, digest) pair of a sealed artifact — never a torn mix —
    and the stream must switch to the new version."""
    t1, t2, test = trees
    reg = ModelRegistry(tmp_path)
    info1 = reg.publish(t1, activate=True)
    rows = test.features_matrix()[:8]
    valid = {1: info1.compiled_digest}
    labels_by_version = {1: predict_columns(t1, test.columns)[:8]}

    async def scenario():
        server = BatchServer(reg, ServerConfig(max_batch=16,
                                               max_delay=0.001))
        await server.start()
        seen = []
        try:
            async def one_request():
                result = await server.predict(rows)
                seen.append(result)

            # phase 1: traffic against v1
            await asyncio.gather(*[one_request() for _ in range(40)])
            # swap lands while the next wave is in flight
            wave = asyncio.gather(*[one_request() for _ in range(40)])
            await asyncio.sleep(0)
            info2 = await asyncio.get_running_loop().run_in_executor(
                None, lambda: reg.publish(t2, activate=True))
            valid[2] = info2.compiled_digest
            labels_by_version[2] = predict_columns(t2, test.columns)[:8]
            await wave
            # phase 3: traffic after the swap
            await asyncio.gather(*[one_request() for _ in range(40)])
        finally:
            await server.stop()
        return seen, server.stats

    seen, stats = asyncio.run(scenario())
    assert len(seen) == 120 and stats.n_errors == 0
    for result in seen:
        # atomicity: version and digest always belong to one sealed
        # artifact, and the labels are exactly that version's answers
        assert valid[result.version] == result.digest
        np.testing.assert_array_equal(
            result.labels, labels_by_version[result.version])
    versions = [r.version for r in seen]
    assert versions[-1] == 2                      # swap took effect
    assert sorted(set(versions)) == [1, 2]
    # superseded version fully drained once the server stopped
    assert reg.current().version == 2
    assert reg.current().leases == 0


def test_server_surfaces_typed_error_for_corrupt_current(tmp_path, trees):
    """If the on-disk CURRENT pointer names a corrupted artifact (swap
    done by a buggy external process), requests fail with the typed
    registry error rather than garbage predictions."""
    t1, t2, test = trees
    reg = ModelRegistry(tmp_path)
    info = reg.publish(t1)
    payload = Path(info.path) / "model.json"
    payload.write_bytes(payload.read_bytes() + b" ")
    (tmp_path / CURRENT_POINTER).write_text(json.dumps({"version": 1}))

    async def scenario():
        server = BatchServer(reg, ServerConfig(max_delay=0.0))
        await server.start()
        try:
            with pytest.raises(ModelArtifactError):
                await server.predict(test.features_matrix()[:4])
        finally:
            await server.stop()
        return server.stats.n_errors

    assert asyncio.run(scenario()) == 1


# ----------------------------------------------------------------------
# framed-TCP front end
# ----------------------------------------------------------------------


@pytest.mark.tcp
def test_tcp_serve_round_trip(tmp_path, trees):
    """serve() + ServingClient: ping, predict (with and without proba),
    stats, cross-process hot-swap via the pointer file, shutdown."""
    t1, t2, test = trees
    reg = ModelRegistry(tmp_path / "registry")
    info1 = reg.publish(t1, activate=True)
    port_file = tmp_path / "port"
    rows = test.features_matrix()[:32]
    stats_box = {}

    def run_server():
        stats_box["stats"] = asyncio.run(serve(
            ModelRegistry(tmp_path / "registry"),   # its own instance
            port=0, port_file=port_file,
            config=ServerConfig(max_batch=64, max_delay=0.001),
            announce=lambda host, port: None,
        ))

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while not port_file.exists():
        assert time.monotonic() < deadline, "server never bound"
        time.sleep(0.01)
    port = int(port_file.read_text())

    with ServingClient("127.0.0.1", port) as client:
        assert client.ping()

        reply = client.predict(rows, proba=True)
        assert reply["version"] == 1
        assert reply["digest"] == info1.compiled_digest
        np.testing.assert_array_equal(
            reply["labels"], predict_columns(t1, test.columns)[:32])
        assert np.array_equal(
            reply["proba"], predict_proba_columns(t1, test.columns)[:32])

        # hot-swap through the on-disk pointer: the serving process's
        # registry instance picks it up before the next batch
        info2 = reg.publish(t2, activate=True)
        deadline = time.monotonic() + 10
        while True:
            reply = client.predict(rows)
            if reply["version"] == 2:
                assert reply["digest"] == info2.compiled_digest
                break
            assert time.monotonic() < deadline, "swap never observed"
            time.sleep(0.01)

        stats = client.stats()
        assert stats["stats"]["n_requests"] >= 2
        assert stats["stats"]["n_swaps"] >= 1
        assert "serving:" in stats["describe"]

        client.shutdown()

    thread.join(timeout=10)
    assert not thread.is_alive()
    assert stats_box["stats"].n_requests >= 2


@pytest.mark.tcp
def test_tcp_malformed_request_gets_typed_reply(tmp_path, trees):
    t1, _, _ = trees
    reg = ModelRegistry(tmp_path / "registry")
    reg.publish(t1, activate=True)
    port_file = tmp_path / "port"

    thread = threading.Thread(
        target=lambda: asyncio.run(serve(
            ModelRegistry(tmp_path / "registry"), port=0,
            port_file=port_file, announce=lambda *a: None)),
        daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while not port_file.exists():
        assert time.monotonic() < deadline
        time.sleep(0.01)
    port = int(port_file.read_text())

    from repro.serving import ServingClientError

    with ServingClient("127.0.0.1", port) as client:
        with pytest.raises(ServingClientError, match="BadRequest"):
            client._rpc({"op": "no-such-op"})
        with pytest.raises(ServingClientError, match="ValueError"):
            client.predict(np.zeros((4, 3)))      # wrong record width
        client.shutdown()
    thread.join(timeout=10)


# ----------------------------------------------------------------------
# CLI round trip
# ----------------------------------------------------------------------


@pytest.mark.tcp
def test_cli_train_publish_serve_query_round_trip(tmp_path):
    """The scripted ops loop: train → publish → serve → query →
    hot-swap (second publish --activate) → query answers from the
    swapped version → shutdown."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[1] / "src")

    def cli(*args, timeout=120):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, env=env, timeout=timeout,
        )

    model1 = tmp_path / "m1.json"
    model2 = tmp_path / "m2.json"
    registry = tmp_path / "registry"
    port_file = tmp_path / "port"

    r = cli("train", "--records", "800", "--function", "F2",
            "--processors", "2", "--save-model", str(model1))
    assert r.returncode == 0, r.stderr
    r = cli("train", "--records", "800", "--function", "F5",
            "--processors", "2", "--save-model", str(model2))
    assert r.returncode == 0, r.stderr

    r = cli("publish", "--registry", str(registry),
            "--model", str(model1), "--activate")
    assert r.returncode == 0, r.stderr
    assert "v1 current" in r.stdout

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--registry", str(registry), "--port-file", str(port_file)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)
    try:
        deadline = time.monotonic() + 60
        while not port_file.exists():
            assert server.poll() is None, server.communicate()[1]
            assert time.monotonic() < deadline, "serve never bound"
            time.sleep(0.05)

        r = cli("query", "--port-file", str(port_file),
                "--records", "300", "--function", "F2",
                "--expect-version", "1")
        assert r.returncode == 0, r.stderr + r.stdout

        r = cli("publish", "--registry", str(registry),
                "--model", str(model2), "--activate")
        assert r.returncode == 0, r.stderr
        assert "v2 current" in r.stdout

        r = cli("query", "--port-file", str(port_file),
                "--records", "300", "--function", "F5",
                "--expect-version", "2", "--stats", "--shutdown")
        assert r.returncode == 0, r.stderr + r.stdout
        assert "accuracy" in r.stdout

        out, err = server.communicate(timeout=30)
        assert server.returncode == 0, err
        assert "serving:" in out                  # final stats printed
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()


# ----------------------------------------------------------------------
# regressions: stop-drain, width validation, batch budget
# ----------------------------------------------------------------------


def test_stop_fails_requests_left_in_queue(tmp_path, trees):
    """Requests enqueued behind the stop sentinel must fail with the
    typed ServerStoppedError instead of awaiting a batcher that already
    exited (the old behaviour hung those callers forever)."""
    t1, _, test = trees
    reg = ModelRegistry(tmp_path)
    reg.publish(t1, activate=True)
    rows = test.features_matrix()[:4]

    async def scenario():
        server = BatchServer(reg, ServerConfig(max_delay=5.0,
                                               max_batch=1 << 20))
        await server.start()
        # the batcher picks this up and sits in its accumulation window
        in_flight = asyncio.ensure_future(server.predict(rows))
        await asyncio.sleep(0.05)
        stopper = asyncio.ensure_future(server.stop())
        await asyncio.sleep(0)          # stop() has queued its sentinel
        stranded = asyncio.ensure_future(server.predict(rows))
        await asyncio.sleep(0)          # request lands behind the sentinel
        await stopper
        first = await in_flight         # flushed batch still answers
        with pytest.raises(ServerStoppedError):
            await stranded
        return first, server.stats

    first, stats = asyncio.run(scenario())
    np.testing.assert_array_equal(
        first.labels, predict_columns(trees[0], trees[2].columns)[:4])
    assert stats.n_errors == 1


def test_mismatched_width_fails_alone_not_the_batch(tmp_path, trees):
    """A request with the wrong column count is rejected at enqueue time;
    the well-formed request sharing its flush window is unharmed (the old
    behaviour poisoned every co-batched future at the vstack)."""
    t1, _, test = trees
    reg = ModelRegistry(tmp_path)
    reg.publish(t1, activate=True)
    rows = test.features_matrix()
    wide = np.zeros((3, rows.shape[1] + 2))

    async def scenario():
        server = BatchServer(reg, ServerConfig(max_delay=0.05,
                                               max_batch=4096))
        await server.start()
        try:
            good = asyncio.ensure_future(server.predict(rows))
            with pytest.raises(ValueError, match="attribute columns"):
                await server.predict(wide)
            result = await good
        finally:
            await server.stop()
        return result, server.stats

    result, stats = asyncio.run(scenario())
    np.testing.assert_array_equal(
        result.labels, predict_columns(t1, test.columns))
    assert stats.n_errors == 0          # rejection never reached a batch


def test_batcher_never_exceeds_max_batch(tmp_path, trees):
    """The accumulator flushes *before* admitting a request that would
    overshoot the record budget (the old order appended first, so every
    full batch ran over); a lone oversized request still runs, alone."""
    t1, _, test = trees
    reg = ModelRegistry(tmp_path)
    reg.publish(t1, activate=True)
    rows = test.features_matrix()

    async def scenario():
        server = BatchServer(reg, ServerConfig(max_batch=8, max_delay=0.2))
        await server.start()
        try:
            burst = await asyncio.gather(*[
                server.predict(rows[3 * i:3 * i + 3]) for i in range(10)
            ])
            sizes = [n for n, _ in server.stats._batches]
            oversized = await server.predict(rows[:20])
        finally:
            await server.stop()
        return burst, sizes, oversized, server.stats

    burst, sizes, oversized, stats = asyncio.run(scenario())
    assert sizes and max(sizes) <= 8    # the regression pin
    for i, result in enumerate(burst):
        np.testing.assert_array_equal(
            result.labels,
            predict_columns(t1, test.columns)[3 * i:3 * i + 3])
    assert len(oversized.labels) == 20  # oversized request ran alone
    assert stats.n_errors == 0

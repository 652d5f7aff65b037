"""Shared-memory data plane: buffer pool, descriptor protocol, process
backend integration, transport accounting, and spawn start method.

The plane must be invisible to algorithm code (identical results and
traces with it on or off), shrink the bytes actually pickled onto the
engine pipes for large payloads, and never leak a segment — whatever way
the job ends.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.runtime import reduction, run_spmd
from repro.runtime.engines.process import ProcessEngine
from repro.runtime.shm import (
    DEFAULT_SHM_THRESHOLD,
    SHM_THRESHOLD_ENV,
    ShmAttachCache,
    ShmDescriptor,
    ShmPool,
    decode_payload,
    encode_payload,
    iter_descriptors,
    resolve_shm_threshold,
    unlink_segment,
)

from tests.test_engine_conformance import _alltoallv_rounds_worker

pytestmark = pytest.mark.skipif(
    "process" not in __import__("repro.runtime", fromlist=["x"])
    .available_backends(),
    reason="process backend unavailable",
)


# ----------------------------------------------------------------------
# threshold resolution
# ----------------------------------------------------------------------


def test_threshold_default(monkeypatch):
    monkeypatch.delenv(SHM_THRESHOLD_ENV, raising=False)
    assert resolve_shm_threshold() == DEFAULT_SHM_THRESHOLD


def test_threshold_env_and_arg(monkeypatch):
    monkeypatch.setenv(SHM_THRESHOLD_ENV, "1234")
    assert resolve_shm_threshold() == 1234
    assert resolve_shm_threshold(999) == 999        # arg wins over env


@pytest.mark.parametrize("value", ["off", "none", "0", "disable", "-5"])
def test_threshold_off_values(monkeypatch, value):
    monkeypatch.setenv(SHM_THRESHOLD_ENV, value)
    assert resolve_shm_threshold() is None


def test_threshold_junk_env_raises(monkeypatch):
    monkeypatch.setenv(SHM_THRESHOLD_ENV, "lots")
    with pytest.raises(ValueError):
        resolve_shm_threshold()


# ----------------------------------------------------------------------
# pool + cache unit tests
# ----------------------------------------------------------------------


@pytest.fixture
def pool():
    p = ShmPool(owner=0, prefix=f"rtest{os.getpid()}")
    yield p
    p.destroy()


def test_place_read_roundtrip(pool):
    arr = np.arange(5000, dtype=np.float64).reshape(50, 100)
    desc = pool.place(arr)
    assert isinstance(desc, ShmDescriptor)
    assert desc.nbytes == arr.nbytes and desc.owner == 0
    cache = ShmAttachCache()
    try:
        view = cache.view(desc)
        assert not view.flags.writeable
        np.testing.assert_array_equal(view, arr)
        copy = cache.read(desc)
        assert copy.flags.writeable
        np.testing.assert_array_equal(copy, arr)
        copy[0, 0] = -1                      # private: segment untouched
        np.testing.assert_array_equal(cache.view(desc), arr)
    finally:
        cache.close()


def test_size_classes_are_powers_of_two():
    assert ShmPool.size_class(1) == 4096
    assert ShmPool.size_class(4096) == 4096
    assert ShmPool.size_class(4097) == 8192
    assert ShmPool.size_class(100_000) == 131072


def test_free_list_reuse(pool):
    a = np.zeros(10_000, dtype=np.float64)
    d1 = pool.place(a)
    assert pool.n_segments == 1 and pool.n_inflight == 1
    pool.release([d1.token])
    assert pool.n_inflight == 0
    d2 = pool.place(a + 1)                   # same size class: reused
    assert pool.n_segments == 1
    assert d2.segment == d1.segment and d2.token != d1.token
    d3 = pool.place(a)                       # first lease still out: new seg
    assert pool.n_segments == 2
    assert d3.segment != d2.segment


def test_non_contiguous_and_sliced_arrays(pool):
    base = np.arange(10_000, dtype=np.int64).reshape(100, 100)
    sliced = base[::2, ::3]                  # non-contiguous view
    desc = pool.place(sliced)
    cache = ShmAttachCache()
    try:
        np.testing.assert_array_equal(cache.read(desc), sliced)
    finally:
        cache.close()


def test_destroy_unlinks_everything():
    p = ShmPool(owner=3, prefix=f"rdest{os.getpid()}")
    desc = p.place(np.ones(9000))
    name = desc.segment
    shared_memory.SharedMemory(name=name).close()   # exists
    p.destroy()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    assert not unlink_segment(name)          # already gone → False


# ----------------------------------------------------------------------
# encode / decode
# ----------------------------------------------------------------------


def test_encode_decode_nested_payload(pool):
    big = np.arange(20_000, dtype=np.float64)       # above threshold
    small = np.arange(4, dtype=np.int32)            # below
    payload = {"a": [big, small], "b": (big * 2, "label"), "c": 7}
    enc = encode_payload(payload, pool, threshold=1024)
    descs = list(iter_descriptors(enc))
    assert len(descs) == 2                          # both big arrays
    assert isinstance(enc["a"][1], np.ndarray)      # small passed through
    assert enc["b"][1] == "label" and enc["c"] == 7

    cache = ShmAttachCache()
    try:
        consumed: list = []
        dec = decode_payload(enc, cache, copy=True, consumed=consumed)
        assert len(consumed) == 2
        np.testing.assert_array_equal(dec["a"][0], big)
        np.testing.assert_array_equal(dec["b"][0], big * 2)
        np.testing.assert_array_equal(dec["a"][1], small)
    finally:
        cache.close()


def test_object_dtype_arrays_never_encoded(pool):
    arr = np.array([object()] * 10_000)
    enc = encode_payload(arr, pool, threshold=1)
    assert enc is arr                               # untouched, no segment
    assert pool.n_segments == 0


# ----------------------------------------------------------------------
# process backend integration
# ----------------------------------------------------------------------


def _collective_worker(comm):
    """Large collectives + ptp, exercising every shm path (module-level:
    fork/spawn safe)."""
    big = np.full(30_000, float(comm.rank), dtype=np.float64)
    total = comm.allreduce(big, reduction.SUM)
    gathered = comm.allgatherv(np.arange(10_000, dtype=np.int64) + comm.rank)
    if comm.rank == 0:
        comm.send(big * 3, dest=comm.size - 1, tag=5)
    peer = None
    if comm.rank == comm.size - 1:
        peer = float(comm.recv(source=0, tag=5)[0])
    return float(total[0]), int(sum(a.sum() for a in gathered)), peer


@pytest.mark.parametrize("threshold", ["4096", "off"])
def test_collectives_identical_with_plane_on_and_off(monkeypatch, threshold):
    monkeypatch.setenv(SHM_THRESHOLD_ENV, threshold)
    got = run_spmd(4, _collective_worker, backend="process")
    expect = run_spmd(4, _collective_worker, backend="thread")
    assert got == expect


def test_normal_run_unlinks_all_segments(monkeypatch):
    monkeypatch.setenv(SHM_THRESHOLD_ENV, "4096")
    run_spmd(3, _collective_worker, backend="process")
    segments = ProcessEngine.last_shm_segments
    assert segments, "run should have placed arrays in shared memory"
    # the ranks' contributions and the router's results alike
    assert {name.split("r", 2)[2].split("s")[0] for name in segments} == \
        {"-1", "0", "1", "2"}
    for name in segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    if os.path.isdir("/dev/shm"):
        assert not glob.glob(f"/dev/shm/rp{os.getpid()}j*")


def test_plane_off_uses_no_segments(monkeypatch):
    monkeypatch.setenv(SHM_THRESHOLD_ENV, "off")
    run_spmd(3, _collective_worker, backend="process")
    assert ProcessEngine.last_shm_segments == ()


def test_alltoallv_rounds_recycle_their_leases(monkeypatch):
    """The router hands all-to-all blocks on as descriptors and their
    receivers send the leases home (``shm_free`` → reclaim on the owner's
    next reply), so many rounds run in a fixed set of segments."""
    monkeypatch.delenv(SHM_THRESHOLD_ENV, raising=False)
    size = 3
    got = run_spmd(size, _alltoallv_rounds_worker, args=(200, 8192),
                   backend="process")
    assert got == [[0.0, 1.0, 2.0]] * size
    segments = ProcessEngine.last_shm_segments
    # a lease is back one round after the block it carried was read: two
    # generations of one block per peer, per rank
    assert 0 < len(segments) <= 2 * size * (size - 1)
    for name in segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    if os.path.isdir("/dev/shm"):
        assert not glob.glob(f"/dev/shm/rp{os.getpid()}j*")


def _transport_worker(comm):
    big = np.zeros(100_000, dtype=np.float64)       # 800 KB payload
    for _ in range(3):
        comm.allreduce(big, reduction.SUM)
    return 0


def _transport_totals(monkeypatch, threshold: str) -> tuple[int, int]:
    from repro.perfmodel import CRAY_T3D, RankTracker, price

    monkeypatch.setenv(SHM_THRESHOLD_ENV, threshold)
    ledgers = [RankTracker() for _ in range(2)]
    run_spmd(2, _transport_worker, backend="process", rank_perf=ledgers)
    stats = price(ledgers, CRAY_T3D)
    return stats.transport_pickled_bytes, stats.transport_shared_bytes


def test_transport_counters_split_pickled_vs_shared(monkeypatch):
    """With the plane on, large-array bytes move from the pickled counter
    to the shared counter — and the pickled volume drops ≥ 10×."""
    pickled_off, shared_off = _transport_totals(monkeypatch, "off")
    pickled_on, shared_on = _transport_totals(monkeypatch, "4096")
    payload_volume = 2 * 3 * 800_000                # ranks × steps × bytes
    assert shared_off == 0
    assert pickled_off > payload_volume             # arrays went by pipe
    assert shared_on > payload_volume               # arrays went by segment
    assert pickled_on * 10 <= pickled_off           # the acceptance bar


def test_simulated_stats_identical_with_plane_on_and_off(monkeypatch):
    """The machine model prices logical bytes: simulated clock/traffic
    must not depend on the transport the engine picked."""
    from repro.perfmodel import CRAY_T3D, RankTracker, price

    def run(threshold: str):
        monkeypatch.setenv(SHM_THRESHOLD_ENV, threshold)
        ledgers = [RankTracker() for _ in range(3)]
        run_spmd(3, _collective_worker, backend="process",
                 rank_perf=ledgers)
        return price(ledgers, CRAY_T3D)

    on, off = run("4096"), run("off")
    assert on.parallel_time == off.parallel_time
    assert on.total_bytes == off.total_bytes
    assert on.bytes_per_rank_max == off.bytes_per_rank_max
    assert on.collective_counts == off.collective_counts


# ----------------------------------------------------------------------
# spawn start method (satellite: conformance beyond fork)
# ----------------------------------------------------------------------

spawn_only = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn start method unavailable",
)


@spawn_only
def test_spawn_smoke_fit(monkeypatch):
    """End-to-end ScalParC fit on the process backend under spawn."""
    from repro.baselines import induce_serial
    from repro.core import ScalParC
    from repro.datagen import generate_quest

    monkeypatch.setenv("REPRO_SPMD_START_METHOD", "spawn")
    ds = generate_quest(200, "F2", seed=5)
    result = ScalParC(n_processors=2, machine=None,
                      backend="process").fit(ds)
    assert result.tree.structurally_equal(induce_serial(ds))


@spawn_only
def test_spawn_shm_attach_and_cleanup(monkeypatch):
    """Attach-by-name works across spawn (no inherited address space) and
    the parent still unlinks every segment afterwards."""
    monkeypatch.setenv("REPRO_SPMD_START_METHOD", "spawn")
    monkeypatch.setenv(SHM_THRESHOLD_ENV, "4096")
    got = run_spmd(3, _collective_worker, backend="process", timeout=60.0)
    monkeypatch.delenv("REPRO_SPMD_START_METHOD")
    expect = run_spmd(3, _collective_worker, backend="thread")
    assert got == expect
    segments = ProcessEngine.last_shm_segments
    assert segments
    for name in segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

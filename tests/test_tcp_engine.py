"""TCP engine specifics: registry wiring, rendezvous/topology units, the
world manifest, transport accounting, and heartbeat liveness.

Engine *semantics* (collectives, traces, perf model, faults) are covered
by the shared suites — ``test_engine_conformance.py``,
``test_differential.py`` and ``test_fault_injection.py`` all parametrize
over ``available_backends()`` or list ``tcp`` explicitly.  This module
tests what is unique to the TCP transport.

Hygiene: every job binds port 0 (ephemeral — no fixed ports anywhere)
and every socket wait is derived from ``REPRO_SPMD_TIMEOUT``.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.runtime import available_backends, run_spmd
from repro.runtime.engines import tcp
from repro.runtime.engines.tcp import (
    HB_ENV,
    HB_TIMEOUT_ENV,
    HOSTS_ENV,
    RendezvousError,
    TcpEngine,
    check_hello,
    host_topology,
    resolve_hb_interval,
    resolve_hb_timeout,
    resolve_tcp_hosts,
)

pytestmark = pytest.mark.tcp


# ----------------------------------------------------------------------
# registry & topology units (no sockets)
# ----------------------------------------------------------------------


def test_tcp_backend_is_registered():
    from repro.runtime import get_engine

    assert "tcp" in available_backends()
    engine = get_engine("tcp")
    assert isinstance(engine, TcpEngine)
    assert engine.name == "tcp"


def test_host_topology_contiguous_and_balanced():
    assert host_topology(4, 2) == [[0, 1], [2, 3]]
    assert host_topology(5, 2) == [[0, 1, 2], [3, 4]]
    assert host_topology(5, 3) == [[0, 1], [2, 3], [4]]
    assert host_topology(1, 2) == [[0]]          # clamped to size
    assert host_topology(3, 1) == [[0, 1, 2]]
    # every rank appears exactly once, in order
    for size in range(1, 9):
        for hosts in range(1, 5):
            flat = [r for blk in host_topology(size, hosts) for r in blk]
            assert flat == list(range(size))


def test_resolve_tcp_hosts(monkeypatch):
    monkeypatch.delenv(HOSTS_ENV, raising=False)
    assert resolve_tcp_hosts(4) == 2                 # default: two hosts
    assert resolve_tcp_hosts(1) == 1                 # never more than size
    assert resolve_tcp_hosts(8, 3) == 3              # explicit wins
    monkeypatch.setenv(HOSTS_ENV, "3")
    assert resolve_tcp_hosts(8) == 3
    monkeypatch.setenv(HOSTS_ENV, "zebra")
    with pytest.raises(ValueError):
        resolve_tcp_hosts(8)
    monkeypatch.setenv(HOSTS_ENV, "0")
    with pytest.raises(ValueError):
        resolve_tcp_hosts(8)


def test_resolve_heartbeat_knobs(monkeypatch):
    monkeypatch.delenv(HB_ENV, raising=False)
    monkeypatch.delenv(HB_TIMEOUT_ENV, raising=False)
    interval = resolve_hb_interval()
    assert interval > 0
    assert resolve_hb_timeout(interval) > interval
    monkeypatch.setenv(HB_ENV, "0.05")
    monkeypatch.setenv(HB_TIMEOUT_ENV, "1.5")
    assert resolve_hb_interval() == 0.05
    assert resolve_hb_timeout(0.05) == 1.5
    monkeypatch.setenv(HB_TIMEOUT_ENV, "0.01")       # below the interval
    with pytest.raises(ValueError):
        resolve_hb_timeout(0.05)
    monkeypatch.setenv(HB_ENV, "-1")
    with pytest.raises(ValueError):
        resolve_hb_interval()


def test_check_hello_accepts_and_rejects():
    ok = dict(job_id="j1", size=4, n_hosts=2)
    assert check_hello(("hello", "j1", 2, 777), **ok) == \
        ("rank", 2, 777, None)
    kind, ident, pid, pids = check_hello(
        ("host_hello", "j1", 1, 888, {2: 10, 3: 11}), **ok
    )
    assert (kind, ident, pid, pids) == ("host", 1, 888, {2: 10, 3: 11})

    with pytest.raises(RendezvousError, match="another job"):
        check_hello(("hello", "stale", 0, 1), **ok)
    with pytest.raises(RendezvousError, match="outside"):
        check_hello(("hello", "j1", 4, 1), **ok)     # rank == size
    with pytest.raises(RendezvousError, match="duplicate"):
        check_hello(("hello", "j1", 1, 1), taken_ranks={1}, **ok)
    with pytest.raises(RendezvousError, match="duplicate"):
        check_hello(("host_hello", "j1", 0, 1, {}), taken_hosts={0}, **ok)
    with pytest.raises(RendezvousError, match="unexpected"):
        check_hello(("coll", 0, "barrier"), **ok)
    with pytest.raises(RendezvousError, match="malformed"):
        check_hello(("hello", "j1"), **ok)
    with pytest.raises(RendezvousError, match="malformed"):
        check_hello(42, **ok)


def test_dial_needs_no_name_lookup_and_fails_typed(monkeypatch):
    """Hosts and ranks dial the listener's own ``(family, sockaddr)``:
    with every name lookup broken the dial still connects, and a
    coordinator that is gone is a typed error naming its address once
    the (shortened) bootstrap budget is spent."""
    def no_lookup(*args, **kwargs):
        raise AssertionError("the dial resolved a name")

    monkeypatch.setattr(socket, "getaddrinfo", no_lookup)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        addr = (listener.family, listener.getsockname())
        tcp._connect_with_retry(addr, 1.0, "rank 0").close()
    monkeypatch.setattr(tcp, "_bootstrap_budget", lambda timeout: 0.2)
    with pytest.raises(RendezvousError, match=(
            f"rank 0: could not reach the coordinator at "
            f"127.0.0.1:{addr[1][1]} within 0.2s")):
        tcp._connect_with_retry(addr, 1.0, "rank 0")


# ----------------------------------------------------------------------
# live jobs: manifest, topology, accounting
# ----------------------------------------------------------------------


def _sum_worker(comm):
    from repro.runtime import reduction

    return int(comm.allreduce(np.int64(comm.rank), reduction.SUM))


def test_world_manifest_and_ephemeral_port():
    assert run_spmd(4, _sum_worker, backend="tcp") == [6] * 4
    world = TcpEngine.last_world
    assert world["size"] == 4 and world["transport"] == "tcp"
    assert world["port"] > 0                         # ephemeral, never fixed
    assert world["hosts"] == {0: [0, 1], 1: [2, 3]}  # default: two hosts
    assert sorted(world["rank_pids"]) == [0, 1, 2, 3]
    assert all(isinstance(p, int) for p in world["rank_pids"].values())
    # ranks live in distinct processes, grouped under distinct hosts
    assert len(set(world["rank_pids"].values())) == 4
    assert len(set(world["host_pids"].values())) == 2


def test_hosts_env_reshapes_topology(monkeypatch):
    monkeypatch.setenv(HOSTS_ENV, "3")
    assert run_spmd(5, _sum_worker, backend="tcp") == [10] * 5
    assert TcpEngine.last_world["hosts"] == {0: [0, 1], 1: [2, 3], 2: [4]}


def test_single_rank_single_host_job():
    assert run_spmd(1, _sum_worker, backend="tcp") == [0]
    assert TcpEngine.last_world["hosts"] == {0: [0]}


def test_transport_accounting_counts_real_wire_bytes():
    """Every payload crosses the socket: the measured pickled-transport
    counter must be positive on every rank, and the shared counter zero
    (no shm plane on a multi-host transport) — while the *simulated*
    traffic stays bit-identical to the thread backend (covered by
    test_perf_model_identical_across_backends)."""
    from repro.perfmodel import RankTracker

    ledgers = [RankTracker() for _ in range(3)]
    run_spmd(3, _sum_worker, backend="tcp", rank_perf=ledgers)
    for tracker in ledgers:
        assert tracker.transport_pickled_bytes > 0
        assert tracker.transport_shared_bytes == 0


def test_scalparc_fits_on_tcp(tiny_quest):
    from repro.baselines import induce_serial
    from repro.core import ScalParC

    clf = ScalParC(n_processors=2, backend="tcp")
    result = clf.fit(tiny_quest)
    assert result.tree.structurally_equal(induce_serial(tiny_quest))
    # full induction over a real socket transport moved real bytes
    assert result.stats.transport_pickled_bytes > 0


def test_engine_reusable_after_failure_on_tcp():
    def bad(comm):
        if comm.rank == 1:
            raise RuntimeError("boom")
        comm.barrier()

    from repro.runtime import SpmdWorkerError

    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(3, bad, backend="tcp", timeout=30.0)
    assert isinstance(excinfo.value.failures[1], RuntimeError)
    # the very next job on the engine bootstraps a fresh world cleanly
    assert run_spmd(3, _sum_worker, backend="tcp") == [3] * 3


def _stop_heartbeat_worker(comm):
    """Rank 1 silences its heartbeat and stalls (socket stays open!) —
    only liveness detection can tell this apart from slow compute."""
    import time

    comm.barrier()
    if comm.rank == 1:
        comm._heartbeat.stop()
        time.sleep(60)                  # bounded: the router kills us
    comm.barrier()
    return comm.rank


def test_heartbeat_detects_silent_rank(monkeypatch):
    """A rank that stops heartbeating without closing its socket is
    declared dead after REPRO_SPMD_TCP_HB_TIMEOUT and the job aborts
    with WorkerCrashError instead of waiting out the full timeout."""
    import time

    from repro.runtime import SpmdWorkerError, WorkerCrashError

    monkeypatch.setenv(HB_ENV, "0.05")
    monkeypatch.setenv(HB_TIMEOUT_ENV, "2.0")
    start = time.monotonic()
    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(3, _stop_heartbeat_worker, backend="tcp", timeout=120.0)
    elapsed = time.monotonic() - start
    failure = excinfo.value.failures[1]
    assert isinstance(failure, WorkerCrashError)
    assert "silent" in str(failure)
    # detection came from the heartbeat, far below the collective timeout
    assert elapsed < 60

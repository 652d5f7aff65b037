"""Failure injection: a rank dying mid-induction must abort the whole job
cleanly (no deadlock), and the engine must stay reusable afterwards.

The process backend adds a failure mode the in-process engines cannot
have — a rank's OS process dying outright (``os._exit``), taking its
pipe with it.  Those tests also exercise the trace layer's post-mortem
value: the dead rank delivered no trace, so the conformance checker
pins the truncation on it.

With level-boundary checkpointing enabled (``repro.runtime.checkpoint``)
a killed fit is no longer fatal: the second half of this module covers
the recovery path — kill at level k, resume from the last manifest,
bit-identical tree; and the process engine's supervised retry, including
elastic p → p′ degradation when respawning at full size keeps failing.
"""

from __future__ import annotations

import os
import re
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import induce_serial
from repro.core import InductionConfig, induce_worker
from repro.core.classifier import run_priced
from repro.core.splitter import ScalParCSplitPhase
from repro.datagen import generate_quest
from repro.perfmodel import CRAY_T3D
from repro.runtime import (
    CheckpointConfig,
    CollectiveAbortedError,
    SpmdWorkerError,
    TraceCollector,
    WorkerCrashError,
    latest_manifest,
    run_spmd,
)

from tests.conftest import modeled_stats_digest


class _DyingSplitPhase(ScalParCSplitPhase):
    """ScalParC's splitting phase that crashes one rank at a given level."""

    def __init__(self, dying_rank: int, at_level: int):
        super().__init__()
        self.dying_rank = dying_rank
        self.at_level = at_level
        self._level = 0

    def execute(self, comm, lists, decisions):
        if self._level == self.at_level and comm.rank == self.dying_rank:
            raise OSError("simulated node failure")
        self._level += 1
        super().execute(comm, lists, decisions)


@pytest.mark.parametrize("dying_rank", [0, 2])
@pytest.mark.parametrize("level", [0, 1])
def test_rank_death_mid_induction_aborts_cleanly(dying_rank, level):
    ds = generate_quest(400, "F2", seed=1)

    def worker(comm):
        return induce_worker(
            comm, ds, InductionConfig(),
            split_phase=_DyingSplitPhase(dying_rank, level),
        )

    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(4, worker)
    failure = excinfo.value.failures[dying_rank]
    assert isinstance(failure, OSError)


@pytest.mark.parametrize("dying_rank", [0, 2])
def test_rank_death_mid_induction_on_process_backend(dying_rank):
    """The same mid-induction failure on real OS processes: the exception
    crosses the process boundary and the job aborts, not hangs."""
    ds = generate_quest(400, "F2", seed=1)

    def worker(comm):
        return induce_worker(
            comm, ds, InductionConfig(),
            split_phase=_DyingSplitPhase(dying_rank, at_level=0),
        )

    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(4, worker, backend="process")
    failure = excinfo.value.failures[dying_rank]
    assert isinstance(failure, OSError)


def _hard_exit_worker(comm):
    """Rank 1's process dies outright after two collectives — no exception,
    no abort protocol, no final message (module-level: fork/spawn safe)."""
    from repro.runtime import reduction

    total = comm.allreduce(np.int64(1), reduction.SUM)
    comm.barrier()
    if comm.rank == 1:
        os._exit(13)
    comm.allgather(int(total))
    return int(total)


def test_hard_process_death_truncates_trace():
    """A hard-killed rank never delivers its trace; the checker's
    truncated-sequence diagnostic names it as the likely casualty."""
    collector = TraceCollector()
    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(3, _hard_exit_worker, backend="process",
                 trace=collector, timeout=30.0)
    assert isinstance(excinfo.value.failures[1], WorkerCrashError)

    # survivors shipped their partial traces on their final messages
    assert len(collector.events_of(0)) >= 2
    assert len(collector.events_of(2)) >= 2
    assert collector.events_of(1) == []

    report = collector.check()
    assert not report.ok
    assert report.codes()[0] == "truncated-sequence"
    diag = report.diagnostics[0]
    assert diag.ranks == (1,)
    assert "did the rank die?" in diag.message


def _hard_exit_mid_level_worker(comm):
    """Rank 1 dies mid-level with large payloads in flight: a 400 KB
    allreduce contribution and a buffered send nobody received, then it
    exits without any cleanup (module-level: fork/spawn safe)."""
    from repro.runtime import reduction

    big = np.full(50_000, comm.rank, dtype=np.float64)
    comm.allreduce(big, reduction.SUM)
    if comm.rank == 1:
        comm.send(big, dest=2, tag=9)   # buffered, never received
        comm.allreduce(big, reduction.SUM)
        os._exit(13)
    comm.allreduce(big, reduction.SUM)
    comm.barrier()
    return int(big[0])


def test_hard_death_mid_level_is_a_worker_crash():
    """A rank hard-killed mid-level with large payloads in flight must
    produce a clean WorkerCrashError, whatever its peers were doing."""
    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(3, _hard_exit_mid_level_worker, backend="process",
                 timeout=30.0)
    failures = excinfo.value.failures
    assert isinstance(failures[1], WorkerCrashError)
    for rank in (0, 2):
        assert isinstance(failures[rank], CollectiveAbortedError)


def test_death_during_blocked_update_rounds():
    """Crash between blocked all-to-all rounds: peers inside the next round
    must be released, not deadlocked."""
    from repro.hashing import DistributedNodeTable

    def worker(comm):
        table = DistributedNodeTable(comm, 100)
        keys = np.arange(100, dtype=np.int64) if comm.rank == 0 \
            else np.empty(0, dtype=np.int64)
        if comm.rank == 1:
            # rank 1 joins the first round then dies before the second
            table.update(np.empty(0, dtype=np.int64),
                         np.empty(0, dtype=np.int32), max_block=10)
            raise ValueError("dies after round block")
        table.update(keys, keys.astype(np.int32), max_block=10)

    with pytest.raises(SpmdWorkerError):
        run_spmd(3, worker)


def test_engine_reusable_after_failure():
    ds = generate_quest(300, "F3", seed=2)

    def bad(comm):
        if comm.rank == 1:
            raise RuntimeError("boom")
        comm.barrier()

    with pytest.raises(SpmdWorkerError):
        run_spmd(3, bad)

    # a fresh job right after the failed one behaves normally
    trees = run_spmd(3, induce_worker, args=(ds, None))
    assert trees[0].structurally_equal(induce_serial(ds))


def test_secondary_failures_not_reported_as_root_cause():
    def worker(comm):
        if comm.rank == 0:
            raise KeyError("root cause")
        comm.allgather(comm.rank)  # peers die of CollectiveAbortedError

    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(4, worker)
    # only the true root cause is surfaced
    assert set(excinfo.value.failures) == {0}
    assert isinstance(excinfo.value.failures[0], KeyError)


def test_abort_error_carries_origin():
    seen = {}

    def worker(comm):
        if comm.rank == 2:
            raise RuntimeError("origin")
        try:
            comm.barrier()
        except CollectiveAbortedError as exc:
            seen[comm.rank] = exc.origin_rank
            raise

    with pytest.raises(SpmdWorkerError):
        run_spmd(3, worker)
    assert all(origin == 2 for origin in seen.values())


# ----------------------------------------------------------------------
# checkpoint/restart: a killed fit is recoverable
# ----------------------------------------------------------------------


class _HardExitSplitPhase(ScalParCSplitPhase):
    """Hard-kills one rank's process (``os._exit``) at a level — once.

    A sentinel file marks that the kill already happened, so the phase is
    lethal in the first incarnation of the job and harmless in respawns
    (the realistic transient-fault shape).  Fork-safe: the flag lives on
    the filesystem, not in process state.
    """

    def __init__(self, flag_path: str, dying_rank: int = 1,
                 at_level: int = 2):
        super().__init__()
        self.flag_path = flag_path
        self.dying_rank = dying_rank
        self.at_level = at_level
        self._level = 0

    def execute(self, comm, lists, decisions):
        if self._level == self.at_level and comm.rank == self.dying_rank \
                and not os.path.exists(self.flag_path):
            open(self.flag_path, "x").close()
            os._exit(13)
        self._level += 1
        super().execute(comm, lists, decisions)


class _DieWhileWideSplitPhase(ScalParCSplitPhase):
    """Kills a rank at a level *every* time the world has ≥ 3 ranks — a
    persistent fault that only elastic degradation can route around."""

    def __init__(self, at_level: int = 2):
        super().__init__()
        self.at_level = at_level
        self._level = 0

    def execute(self, comm, lists, decisions):
        if self._level == self.at_level and comm.size >= 3 \
                and comm.rank == comm.size - 1:
            os._exit(13)
        self._level += 1
        super().execute(comm, lists, decisions)


class _DieInLocalPhase(ScalParCSplitPhase):
    """Kills world rank ``dying_rank`` inside its local phase — after the
    hand-off, where it splits its own subtrees on a world of one — when
    the world had at least ``min_world`` ranks.  With ``flag_path`` the
    kill is a one-shot ``os._exit`` (a sentinel file marks it done);
    without, it raises ``OSError`` every time."""

    def __init__(self, dying_rank: int = 1, min_world: int = 2,
                 flag_path: str | None = None):
        super().__init__()
        self.dying_rank = dying_rank
        self.min_world = min_world
        self.flag_path = flag_path

    def setup(self, comm, n_total):
        if comm.size > 1:
            self.world = (comm.rank, comm.size)
        super().setup(comm, n_total)

    def restore_state(self, comm, states):
        self.world = (comm.rank, comm.size)
        super().restore_state(comm, states)

    def execute(self, comm, lists, decisions):
        rank, size = self.world
        if comm.size == 1 and rank == self.dying_rank \
                and size >= self.min_world:
            if self.flag_path is None:
                raise OSError("simulated node failure in the local phase")
            if not os.path.exists(self.flag_path):
                open(self.flag_path, "x").close()
                os._exit(13)
        super().execute(comm, lists, decisions)


def _handoff_level(ds, p):
    collector = TraceCollector()
    run_spmd(p, induce_worker, args=(ds, None), backend="thread",
             trace=collector)
    (level,) = {ev.level for ev in collector.events_of(0)
                if ev.phase == "Handoff"}
    return level


class _Spy(ScalParCSplitPhase):
    """Records the newest sealed cut when the local phase first splits."""

    def __init__(self, sealed: list, directory: str):
        super().__init__()
        self.sealed = sealed
        self.directory = directory

    def execute(self, comm, lists, decisions):
        if comm.size == 1 and not self.sealed:
            self.sealed.append(latest_manifest(self.directory))
        super().execute(comm, lists, decisions)


def test_no_cut_is_taken_after_the_handoff(tmp_path):
    """Cuts stop at the hand-off, and the last one before it is sealed
    before the local phase starts — so it is the cut a crash in the
    local phase resumes from."""
    ds = generate_quest(400, "F2", seed=1)
    level = _handoff_level(ds, 3)
    cfg = CheckpointConfig(dir=str(tmp_path / "run"), every=1, keep=0)
    sealed = []

    def worker(comm, checkpoint=None):
        return induce_worker(comm, ds, None, checkpoint=checkpoint,
                             split_phase=_Spy(sealed, checkpoint.dir))

    run_spmd(3, worker, checkpoint=cfg, backend="thread")
    cuts = sorted(os.listdir(cfg.dir))
    assert cuts[-1] == f"level-{level:04d}"
    # what was sealed when the first rank entered its local phase
    assert sealed[0] is not None and f"level-{level:04d}" in sealed[0]


def test_kill_inside_the_local_phase_resumes_bit_identical(tmp_path):
    """A rank hard-killed while growing its own subtrees: the supervisor
    respawns the job from the last cut before the hand-off, the hand-off
    is replayed, and the tree is the reference tree."""
    from repro.runtime.engines.process import ProcessEngine

    ds = generate_quest(400, "F2", seed=1)
    cfg = CheckpointConfig(dir=str(tmp_path / "ckpt"), every=1, keep=0,
                           max_restarts=2, backoff_base=0.01)
    flag = str(tmp_path / "killed")

    def worker(comm, checkpoint=None):
        return induce_worker(comm, ds, None, checkpoint=checkpoint,
                             split_phase=_DieInLocalPhase(flag_path=flag))

    trees = run_spmd(3, worker, backend="process", timeout=30.0,
                     checkpoint=cfg)
    assert all(t.structurally_equal(induce_serial(ds)) for t in trees)
    assert ProcessEngine.last_attempts == ((0, 3), (1, 3))
    assert os.path.exists(flag)


def test_kill_inside_the_local_phase_resumes_on_another_world(tmp_path):
    """p → p′: a fit that fails in its local phase at p = 3 resumes from
    the last cut before the hand-off at p′ = 2 (lists re-blocked, the
    hand-off replayed on two ranks) with the reference tree."""
    ds = generate_quest(400, "F2", seed=1)
    level = _handoff_level(ds, 3)
    d = str(tmp_path / "run")

    def doomed(comm, checkpoint=None):
        return induce_worker(comm, ds, None, checkpoint=checkpoint,
                             split_phase=_DieInLocalPhase(min_world=3))

    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(3, doomed, checkpoint=CheckpointConfig(dir=d, every=1,
                                                         keep=0))
    assert isinstance(excinfo.value.failures[1], OSError)
    manifest = latest_manifest(d)
    assert manifest is not None and f"level-{level:04d}" in manifest
    trees = run_spmd(2, doomed, checkpoint=CheckpointConfig(
        dir=d, resume=manifest, keep=0))
    for tree in trees:
        assert tree.structurally_equal(induce_serial(ds))


@pytest.mark.parametrize("backend", ["thread", "process", "tcp"])
def test_checkpoint_write_path_on_every_backend(backend, tmp_path):
    """Checkpointing is engine-agnostic: every backend writes complete,
    loadable cuts and induces the reference tree."""
    ds = generate_quest(400, "F2", seed=1)
    cfg = CheckpointConfig(dir=str(tmp_path / backend), every=1, keep=0)
    trees = run_spmd(3, induce_worker, args=(ds, None),
                     kwargs={"checkpoint": cfg}, backend=backend,
                     timeout=60.0)
    assert trees[0].structurally_equal(induce_serial(ds))
    manifest = latest_manifest(cfg.dir)
    assert manifest is not None

    from repro.runtime import LoadedCheckpoint

    loaded = LoadedCheckpoint.open(manifest)
    assert loaded.n_ranks == 3
    assert loaded.meta.get("algo") == "scalparc-induction"


def test_kill_at_level_k_then_resume_bit_identical(tmp_path):
    """The acceptance scenario, engine-independent half: a fit killed at
    level k leaves a complete manifest; a fresh job resuming from it
    finishes with a tree bit-identical to the uninterrupted run — and the
    resumed schedule itself is deterministic (trace-digest equality)."""
    ds = generate_quest(500, "F2", seed=4)
    golden = induce_serial(ds)
    d = str(tmp_path / "run")
    cfg = CheckpointConfig(dir=d, every=1, keep=0)

    def doomed(comm, checkpoint=None):
        return induce_worker(comm, ds, None,
                             split_phase=_DyingSplitPhase(1, at_level=3),
                             checkpoint=checkpoint)

    with pytest.raises(SpmdWorkerError):
        run_spmd(3, doomed, kwargs={"checkpoint": cfg})
    # cut k's manifest is sealed during the save of cut k+1 (pipelined
    # fsyncs), so dying *inside* level 3 leaves level-0002 as the newest
    # sealed cut — one cadence window behind the crash point
    manifest = latest_manifest(d)
    assert manifest is not None and "level-0002" in manifest

    # keep=0 (retain all cuts): the resumed jobs write new cuts into the
    # same directory, and the default retention would prune the very cut
    # the second resume wants
    resume = CheckpointConfig(dir=d, resume=manifest, keep=0)
    digests = []
    for _ in range(2):                  # resume twice: same events exactly
        collector = TraceCollector()
        trees = run_spmd(3, induce_worker, args=(ds, None),
                         kwargs={"checkpoint": resume}, trace=collector)
        for tree in trees:
            assert tree.structurally_equal(golden)
        collector.check().raise_if_failed()
        digests.append([
            (e.kind, e.payload_digest, e.result_digest)
            for rank in range(3) for e in collector.events_of(rank)
        ])
    assert digests[0] == digests[1]


def test_hard_kill_recovery_on_process_backend(tmp_path, caplog):
    """A rank hard-killed mid-level (``os._exit``) on the process backend:
    the supervisor tears the job down, respawns from the last manifest,
    and the fit completes transparently with the reference tree — saying
    so once, as a WARNING on the ``repro.runtime`` logger."""
    import logging

    from repro.runtime.engines.process import ProcessEngine

    ds = generate_quest(400, "F2", seed=1)
    cfg = CheckpointConfig(dir=str(tmp_path / "ckpt"), every=1, keep=0,
                           max_restarts=2, backoff_base=0.01)
    flag = str(tmp_path / "killed")

    def worker(comm, checkpoint=None):
        return induce_worker(
            comm, ds, None,
            split_phase=_HardExitSplitPhase(flag, dying_rank=1, at_level=2),
            checkpoint=checkpoint,
        )

    with caplog.at_level(logging.WARNING, logger="repro.runtime"):
        trees = run_spmd(3, worker, backend="process", timeout=30.0,
                         checkpoint=cfg)
    assert all(t.structurally_equal(induce_serial(ds)) for t in trees)
    # one crash, one successful respawn — at the original size
    assert ProcessEngine.last_attempts == ((0, 3), (1, 3))
    assert os.path.exists(flag)
    (notice,) = [r for r in caplog.records if r.name == "repro.runtime"]
    assert notice.levelno == logging.WARNING
    assert "restart 1/2 on 3 rank(s) from " in notice.getMessage()
    assert "worker process died" in notice.getMessage()


def test_elastic_degraded_recovery_p4_to_p2(tmp_path):
    """The acceptance scenario's degraded half: a *persistent* fault kills
    a rank whenever the world is wide, so respawning at p=4 fails again;
    the second restart shrinks to p′=2 and completes — same tree."""
    from repro.runtime.engines.process import ProcessEngine

    ds = generate_quest(400, "F2", seed=1)
    cfg = CheckpointConfig(dir=str(tmp_path / "ckpt"), every=1, keep=0,
                           max_restarts=2, backoff_base=0.01)

    def worker(comm, checkpoint=None):
        return induce_worker(comm, ds, None,
                             split_phase=_DieWhileWideSplitPhase(at_level=2),
                             checkpoint=checkpoint)

    trees = run_spmd(4, worker, backend="process", timeout=30.0,
                     checkpoint=cfg)
    assert all(t.structurally_equal(induce_serial(ds)) for t in trees)
    # attempt 0 at p=4 crashed, attempt 1 respawned at p=4 and crashed
    # again, attempt 2 degraded to p′=2 and finished
    assert ProcessEngine.last_attempts == ((0, 4), (1, 4), (2, 2))


def test_retry_budget_exhausted_surfaces_failure(tmp_path):
    """With elastic shrinking off, a persistent fault exhausts
    ``max_restarts`` and the original failure is surfaced."""
    ds = generate_quest(400, "F2", seed=1)
    cfg = CheckpointConfig(dir=str(tmp_path / "ckpt"), every=1, keep=0,
                           max_restarts=1, backoff_base=0.01, elastic=False)

    def worker(comm, checkpoint=None):
        return induce_worker(comm, ds, None,
                             split_phase=_DieWhileWideSplitPhase(at_level=2),
                             checkpoint=checkpoint)

    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(3, worker, backend="process", timeout=30.0, checkpoint=cfg)
    assert any(isinstance(e, WorkerCrashError)
               for e in excinfo.value.failures.values())


# ----------------------------------------------------------------------
# the TCP backend: socket-transport failure modes
# ----------------------------------------------------------------------


@pytest.mark.tcp
def test_hard_rank_death_truncates_trace_on_tcp():
    """``os._exit`` on the TCP backend: the router sees the socket EOF,
    raises WorkerCrashError, and the survivors' partial traces (shipped
    on their final frames) pin the truncation on the dead rank — the
    exact mirror of the process-backend case above."""
    collector = TraceCollector()
    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(3, _hard_exit_worker, backend="tcp",
                 trace=collector, timeout=30.0)
    assert isinstance(excinfo.value.failures[1], WorkerCrashError)

    assert len(collector.events_of(0)) >= 2
    assert len(collector.events_of(2)) >= 2
    assert collector.events_of(1) == []

    report = collector.check()
    assert not report.ok
    assert report.codes()[0] == "truncated-sequence"
    assert report.diagnostics[0].ranks == (1,)


def _abrupt_socket_close_worker(comm):
    """Rank 1 slams its engine connection shut mid-job — the process
    stays alive, but its transport is gone (module-level: fork safe)."""
    from repro.runtime import reduction

    comm.allreduce(np.int64(1), reduction.SUM)
    if comm.rank == 1:
        comm._conn.close()
        return -1                       # final frame has nowhere to go
    comm.barrier()
    return comm.rank


@pytest.mark.tcp
def test_abrupt_socket_close_on_tcp():
    """A closed socket (no exit, no farewell) is indistinguishable from
    rank death on the wire: EOF → WorkerCrashError, peers released."""
    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(3, _abrupt_socket_close_worker, backend="tcp",
                 timeout=30.0)
    assert isinstance(excinfo.value.failures[1], WorkerCrashError)


def _kill_own_host_worker(comm):
    """Rank 1 SIGKILLs its *host* process (its parent): the fault takes
    down the host's whole rank group, not just the perpetrator."""
    import signal

    from repro.runtime import reduction

    comm.allreduce(np.int64(1), reduction.SUM)
    if comm.rank == 1:
        os.kill(os.getppid(), signal.SIGKILL)
        import time
        time.sleep(30)                  # bounded: the router reaps us
    comm.barrier()
    return comm.rank


@pytest.mark.tcp
def test_host_death_kills_its_rank_group_on_tcp():
    """Killing a host (control-connection EOF) must fail every rank it
    hosted — the loopback stand-in for "machine fell off the network"."""
    from repro.runtime.engines.tcp import TcpEngine

    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(4, _kill_own_host_worker, backend="tcp", timeout=30.0)
    # default topology: host 0 carries ranks {0, 1} — both die with it;
    # at least the first crash surfaces as the failure set (the second
    # may be recorded as the abort echo, depending on arrival order)
    hosted = set(TcpEngine.last_world["hosts"][0])
    assert hosted == {0, 1}
    crashed = {r for r, e in excinfo.value.failures.items()
               if isinstance(e, WorkerCrashError)}
    assert crashed and crashed <= hosted
    assert any("host 0" in str(e)
               for e in excinfo.value.failures.values())


@pytest.mark.tcp
def test_hard_kill_recovery_on_tcp_backend(tmp_path):
    """The supervised-retry path over sockets: a one-shot ``os._exit``
    mid-fit tears the world down; the engine respawns every host and
    rank from the last sealed manifest and finishes the reference tree."""
    from repro.runtime.engines.tcp import TcpEngine

    ds = generate_quest(400, "F2", seed=1)
    cfg = CheckpointConfig(dir=str(tmp_path / "ckpt"), every=1, keep=0,
                           max_restarts=2, backoff_base=0.01)
    flag = str(tmp_path / "killed")

    def worker(comm, checkpoint=None):
        return induce_worker(
            comm, ds, None,
            split_phase=_HardExitSplitPhase(flag, dying_rank=1, at_level=2),
            checkpoint=checkpoint,
        )

    trees = run_spmd(3, worker, backend="tcp", timeout=30.0,
                     checkpoint=cfg)
    assert all(t.structurally_equal(induce_serial(ds)) for t in trees)
    assert TcpEngine.last_attempts == ((0, 3), (1, 3))
    assert os.path.exists(flag)


@pytest.mark.tcp
def test_elastic_degraded_recovery_p4_to_p2_on_tcp(tmp_path):
    """Elastic degradation over sockets: a persistent wide-world fault
    fails p=4 twice; the second restart shrinks to p′=2, re-shards the
    resumed attribute lists, and still produces the bit-identical tree."""
    from repro.runtime.engines.tcp import TcpEngine

    ds = generate_quest(400, "F2", seed=1)
    cfg = CheckpointConfig(dir=str(tmp_path / "ckpt"), every=1, keep=0,
                           max_restarts=2, backoff_base=0.01)

    def worker(comm, checkpoint=None):
        return induce_worker(comm, ds, None,
                             split_phase=_DieWhileWideSplitPhase(at_level=2),
                             checkpoint=checkpoint)

    trees = run_spmd(4, worker, backend="tcp", timeout=30.0,
                     checkpoint=cfg)
    assert all(t.structurally_equal(induce_serial(ds)) for t in trees)
    assert TcpEngine.last_attempts == ((0, 4), (1, 4), (2, 2))


def test_worker_raised_errors_are_not_retried(tmp_path):
    """Supervised retry covers rank death and pipe timeouts only: a
    worker-*raised* exception is a correctness signal and must surface
    immediately, checkpoint or not."""
    from repro.runtime.engines.process import ProcessEngine

    ds = generate_quest(400, "F2", seed=1)
    cfg = CheckpointConfig(dir=str(tmp_path / "ckpt"), every=1, keep=0,
                           max_restarts=2, backoff_base=0.01)

    def worker(comm, checkpoint=None):
        return induce_worker(comm, ds, None,
                             split_phase=_DyingSplitPhase(1, at_level=2),
                             checkpoint=checkpoint)

    with pytest.raises(SpmdWorkerError) as excinfo:
        run_spmd(3, worker, backend="process", timeout=30.0, checkpoint=cfg)
    assert isinstance(excinfo.value.failures[1], OSError)
    assert ProcessEngine.last_attempts == ((0, 3),)     # no respawn


# ----------------------------------------------------------------------
# the stats of a recovered fit: the ledgers of the world that finished
# ----------------------------------------------------------------------


def _restarts(caplog) -> list[tuple[int, str]]:
    """``(world size, manifest)`` of every supervised restart logged."""
    found = [re.search(r"on (\d+) rank\(s\) from (\S+) in", r.getMessage())
             for r in caplog.records if r.name == "repro.runtime"]
    return [(int(m.group(1)), m.group(2)) for m in found if m]


@pytest.mark.parametrize("backend", ["thread", "process", "tcp"])
def test_recovered_fit_prices_the_world_that_finished(backend, tmp_path,
                                                      caplog):
    """A recovered fit prices exactly the ledgers of the world that
    finished: each attempt starts every rank's ledger empty, and the
    cut's restore supplies the prefix.  So a supervised recovery prices
    like a manual resume from the manifest it resumed from, at the same
    world size — the thread engine's manual resume, whose tracker lives
    in-process — and ``stats.size`` is the world that finished.  The
    thread engine has no supervisor: there, the job dies and is resumed
    by hand."""
    import logging

    ds = generate_quest(1500, "F2", seed=1)
    d = str(tmp_path / "ckpt")
    cfg = CheckpointConfig(dir=d, every=1, keep=0, max_restarts=2,
                           backoff_base=0.01)

    def resumed(manifest: str, size: int):
        return run_priced(CRAY_T3D, size, induce_worker, (ds, None),
                          backend="thread",
                          checkpoint=replace(cfg, resume=manifest))[1]

    if backend == "thread":
        def doomed(comm, checkpoint=None):
            return induce_worker(comm, ds, None,
                                 split_phase=_DyingSplitPhase(1, 3),
                                 checkpoint=checkpoint)

        with pytest.raises(SpmdWorkerError):
            run_priced(CRAY_T3D, 3, doomed, backend="thread",
                       checkpoint=cfg)
        manifest = latest_manifest(d)
        stats = run_priced(CRAY_T3D, 3, induce_worker, (ds, None),
                           backend="thread",
                           checkpoint=replace(cfg, resume=manifest))[1]
        assert stats.size == 3
        assert modeled_stats_digest(stats) == \
            modeled_stats_digest(resumed(manifest, 3))
        return

    flag = str(tmp_path / "killed")

    def killed_once(comm, checkpoint=None):
        return induce_worker(
            comm, ds, None,
            split_phase=_HardExitSplitPhase(flag, dying_rank=1, at_level=3),
            checkpoint=checkpoint)

    with caplog.at_level(logging.WARNING, logger="repro.runtime"):
        stats = run_priced(CRAY_T3D, 3, killed_once, backend=backend,
                           timeout=30.0, checkpoint=cfg)[1]
    ((size, manifest),) = _restarts(caplog)
    assert stats.size == size == 3
    assert modeled_stats_digest(stats) == \
        modeled_stats_digest(resumed(manifest, 3))

    # elastic: the fit that finished on 2 of the 4 ranks it started on
    caplog.clear()
    d = str(tmp_path / "elastic")
    cfg = replace(cfg, dir=d)

    def wide_fault(comm, checkpoint=None):
        return induce_worker(comm, ds, None,
                             split_phase=_DieWhileWideSplitPhase(at_level=2),
                             checkpoint=checkpoint)

    with caplog.at_level(logging.WARNING, logger="repro.runtime"):
        stats = run_priced(CRAY_T3D, 4, wide_fault, backend=backend,
                           timeout=30.0, checkpoint=cfg)[1]
    size, manifest = _restarts(caplog)[-1]
    assert stats.size == size == 2
    assert len(stats.memory_per_rank) == 2
    assert modeled_stats_digest(stats) == \
        modeled_stats_digest(resumed(manifest, 2))

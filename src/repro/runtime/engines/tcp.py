"""The ``tcp`` backend: ranks as OS processes on loopback multi-process
"hosts", coordinated over TCP sockets — the multi-host engine.

Topology (layered, after pytorch-xla's host × local-rank orchestration):

.. code-block:: text

    engine parent ──────────────── binds 127.0.0.1:0, runs the router
      ├─ host process 0 ─┬─ rank 0 ──┐
      │   (control conn) └─ rank 1 ──┤  each rank: one TCP connection
      └─ host process 1 ─┬─ rank 2 ──┤  to the router, length-prefixed
          (control conn) └─ rank 3 ──┘  binary frames (runtime.framing)

The engine launches ``REPRO_SPMD_TCP_HOSTS`` *host* processes (loopback
stand-ins for machines); each host forks its contiguous block of rank
processes and keeps a control connection to the router.  Every rank
dials the router itself — with jittered retry/backoff — and performs a
rendezvous handshake: it announces ``(job, rank, pid)`` and blocks until
the router has assembled the whole world and answers with the *world
manifest* (job id, size, host→ranks map, pids).  Only then do workers
start, so the handshake doubles as the bootstrap barrier.

The router is the process backend's router — same event loop, same
:class:`~.group.Group` rendezvous core, same abort discipline, and every
collective step finished inside it by the step's own
``Collective.finish`` (two hops: one frame up, one frame down per rank)
— and ranks speak to it through the same
:class:`~.process.ProcessCommunicator`; only the
:class:`~.process.Channel` differs (:class:`SocketChannel` here, a pipe
there).  The shared-memory data plane is deliberately *off* — hosts
model separate machines, so every payload honestly crosses the socket
and ``transport_pickled_bytes`` measures true wire bytes (header
included), while the simulated cost model keeps pricing logical payload
sizes exactly as on every other backend.

Failure detection is two-tiered (``docs/runtime.md`` "TCP engine" has
the long form).  **EOF**: a dying rank closes its socket and the router
turns that into :class:`WorkerCrashError`, exactly like a pipe EOF.
**Heartbeats**: every rank and host beats a tiny ``hb`` frame each
``REPRO_SPMD_TCP_HB`` seconds; a peer silent for
``REPRO_SPMD_TCP_HB_TIMEOUT`` seconds is declared dead although its
socket never delivered a FIN, and a dead *host* takes its local ranks
with it (the router kills the orphans by pid).  Crash recovery is the
inherited process-backend supervisor; traces ship home on final frames,
so partial traces survive aborts.  Every socket wait is bounded by a
value derived from ``REPRO_SPMD_TIMEOUT`` — a hung peer always fails
loudly instead of stalling the job.
"""

from __future__ import annotations

import itertools
import multiprocessing.connection
import os
import random
import signal
import socket
import threading
import time
from collections import deque
from typing import Any, Callable, Sequence

from ..envutil import EnvVarError, env_float, env_int
from ..errors import SpmdError
from ..framing import (
    FrameAssembler,
    FrameError,
    encode_frame,
    resolve_max_frame,
)
from .process import (
    _ABORT_GRACE,
    _mp_context,
    _join_or_terminate,
    _Router,
    _run_worker,
    Channel,
    ChannelClosedError,
    ProcessCommunicator,
    ProcessEngine,
)

__all__ = [
    "HB_ENV",
    "HB_TIMEOUT_ENV",
    "HOSTS_ENV",
    "RendezvousError",
    "SocketChannel",
    "TcpEngine",
    "check_hello",
    "host_topology",
    "resolve_hb_interval",
    "resolve_hb_timeout",
    "resolve_tcp_hosts",
]

#: number of loopback "hosts" the engine launches (env override)
HOSTS_ENV = "REPRO_SPMD_TCP_HOSTS"

#: heartbeat interval in seconds (env override)
HB_ENV = "REPRO_SPMD_TCP_HB"

#: seconds of peer silence before the router declares it dead
HB_TIMEOUT_ENV = "REPRO_SPMD_TCP_HB_TIMEOUT"

DEFAULT_HB_INTERVAL = 0.5

#: per-parent job counter, part of the job id every hello must echo
_JOB_SEQ = itertools.count()


class RendezvousError(SpmdError):
    """The TCP bootstrap failed: the world never assembled (a worker
    could not reach the coordinator, a hello was invalid/duplicated, or
    the rendezvous deadline passed with ranks missing)."""


# ----------------------------------------------------------------------
# topology & knob resolution
# ----------------------------------------------------------------------


def resolve_tcp_hosts(size: int, n_hosts: int | None = None) -> int:
    """Number of loopback host processes: explicit argument, then the
    ``REPRO_SPMD_TCP_HOSTS`` env var, then 2 (clamped to [1, size])."""
    if n_hosts is None:
        n_hosts = env_int(HOSTS_ENV, 2)
        if n_hosts <= 0:
            raise EnvVarError(HOSTS_ENV, str(n_hosts), "a positive integer")
    elif n_hosts <= 0:
        raise ValueError(f"host count must be positive, got {n_hosts}")
    return min(n_hosts, size)


def host_topology(size: int, n_hosts: int) -> list[list[int]]:
    """Partition ``size`` ranks over ``n_hosts`` hosts in contiguous,
    balanced blocks (the first ``size % n_hosts`` hosts get one extra),
    mirroring the local-rank × host layering of real multi-host jobs."""
    n_hosts = min(max(1, n_hosts), size)
    base, extra = divmod(size, n_hosts)
    topo: list[list[int]] = []
    start = 0
    for h in range(n_hosts):
        n = base + (1 if h < extra else 0)
        topo.append(list(range(start, start + n)))
        start += n
    return topo


def resolve_hb_interval() -> float:
    interval = env_float(HB_ENV, DEFAULT_HB_INTERVAL)
    if interval <= 0:
        raise ValueError(f"heartbeat interval must be positive, got {interval}")
    return interval


def resolve_hb_timeout(interval: float) -> float:
    # generous by default: EOFs catch ordinary deaths instantly, the
    # heartbeat only needs to catch silent wedges, and CI machines
    # starve threads for whole seconds under load
    hb_timeout = env_float(HB_TIMEOUT_ENV, max(10.0, 20.0 * interval))
    if hb_timeout <= interval:
        raise ValueError(
            f"heartbeat timeout ({hb_timeout}s) must exceed the "
            f"interval ({interval}s)"
        )
    return hb_timeout


def _read_bound(timeout: float) -> float:
    """Rank-side socket read timeout: above the router's collective
    deadline (the router aborts first in every healthy failure mode) but
    still finite, so a dead router can never hang a worker."""
    return timeout + 2 * _ABORT_GRACE + 10.0


def _bootstrap_budget(timeout: float) -> float:
    """Seconds the rendezvous may take before the world is declared
    unassemblable; proportional to the configured wait timeout but never
    so short that process spawn latency alone breaks bootstrap."""
    return max(10.0, timeout)


def check_hello(obj: Any, *, job_id: str, size: int, n_hosts: int,
                taken_ranks=(), taken_hosts=()) -> tuple:
    """Validate one rendezvous hello frame.

    Returns ``("rank", rank, pid, None)`` or
    ``("host", host_id, pid, rank_pids)``; raises
    :class:`RendezvousError` on a malformed frame, a job-id mismatch, an
    out-of-range ordinal, or a duplicate claim.
    """
    try:
        kind = obj[0]
        if kind == "hello":
            _, job, rank, pid = obj
            ident, limit, taken, what = rank, size, taken_ranks, "rank"
            extra = None
        elif kind == "host_hello":
            _, job, host_id, pid, extra = obj
            ident, limit, taken, what = host_id, n_hosts, taken_hosts, "host"
            extra = dict(extra)
        else:
            raise RendezvousError(
                f"unexpected {kind!r} frame during rendezvous"
            )
    except RendezvousError:
        raise
    except Exception:
        raise RendezvousError(f"malformed hello frame: {obj!r}") from None
    if job != job_id:
        raise RendezvousError(
            f"{what} hello for job {job!r}, expected {job_id!r} "
            f"(stale worker from another job?)"
        )
    if not isinstance(ident, int) or not 0 <= ident < limit:
        raise RendezvousError(
            f"{what} ordinal {ident!r} outside [0, {limit})"
        )
    if ident in taken:
        raise RendezvousError(f"duplicate hello for {what} {ident}")
    return what, ident, pid, extra


# ----------------------------------------------------------------------
# shared transport pieces
# ----------------------------------------------------------------------


class SocketChannel(Channel):
    """A :class:`Channel` over one TCP socket: each message is one
    CRC-framed pickle (:mod:`repro.runtime.framing`).  ``send`` is
    thread-safe (one lock serializes whole frames), so the heartbeat
    thread never splices bytes into the worker thread's frame.  Reads
    honour the socket timeout; :attr:`last_rx` is when bytes last
    arrived — the liveness signal the router's heartbeat check reads."""

    __slots__ = ("sock", "last_rx", "_wlock", "_assembler", "_ready", "_max")

    def __init__(self, sock: socket.socket, *, max_frame: int | None = None):
        self.sock = sock
        self.last_rx = time.monotonic()
        self._wlock = threading.Lock()
        self._max = resolve_max_frame(max_frame)
        self._assembler = FrameAssembler(max_frame=self._max)
        self._ready: deque[tuple[Any, int]] = deque()   # decoded, undelivered

    def send(self, msg: Any) -> int:
        frame = encode_frame(msg, max_frame=self._max)
        try:
            with self._wlock:
                self.sock.sendall(frame)
        except OSError as exc:
            raise ChannelClosedError(f"socket closed: {exc}") from exc
        return len(frame)

    def _fill(self) -> None:
        """One socket read, parsed into :attr:`_ready`."""
        try:
            chunk = self.sock.recv(1 << 16)
        except TimeoutError:
            raise
        except OSError as exc:
            raise ChannelClosedError(f"socket broken: {exc}") from exc
        if not chunk:
            raise ChannelClosedError("socket closed by peer")
        self.last_rx = time.monotonic()
        self._ready.extend(self._assembler.feed(chunk))

    def recv(self) -> tuple[Any, int]:
        while not self._ready:
            self._fill()
        return self._ready.popleft()

    def recv_ready(self) -> list[tuple[Any, int]]:
        self._fill()
        frames = list(self._ready)
        self._ready.clear()
        return frames

    def fileno(self) -> int:
        return self.sock.fileno()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _Heartbeat:
    """Daemon thread beating ``hb`` frames onto a channel so the router
    can tell "computing" from "vanished"."""

    def __init__(self, conn: SocketChannel, interval: float):
        self._conn = conn
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="spmd-tcp-heartbeat", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._conn.send(("hb",))
            except (ChannelClosedError, FrameError):
                return              # connection gone; the router knows

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=1.0)


def _connect_with_retry(addr: tuple[int, tuple], timeout: float,
                        who: str) -> socket.socket:
    """Dial the coordinator at ``addr`` — ``(family, sockaddr)``, the
    listener's own numeric address, so no dial pays a name lookup — with
    jittered exponential backoff, bounded by the bootstrap budget."""
    family, sockaddr = addr
    budget = _bootstrap_budget(timeout)
    deadline = time.monotonic() + budget
    delay = 0.02
    while True:
        remaining = deadline - time.monotonic()
        sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            sock.settimeout(max(0.1, min(2.0, remaining)))
            sock.connect(sockaddr)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            sock.close()
            if time.monotonic() + delay >= deadline:
                raise RendezvousError(
                    f"{who}: could not reach the coordinator at "
                    f"{sockaddr[0]}:{sockaddr[1]} within {budget:.1f}s: "
                    f"{exc}"
                ) from exc
            time.sleep(delay * (1.0 + random.random()))
            delay = min(delay * 2, 1.0)


# ----------------------------------------------------------------------
# rank side
# ----------------------------------------------------------------------


def _expect_welcome(obj: Any, job_id: str, size: int) -> dict:
    if not (isinstance(obj, tuple) and len(obj) == 2
            and obj[0] == "welcome"):
        raise RendezvousError(f"expected a welcome frame, got {obj!r}")
    manifest = obj[1]
    if manifest.get("job") != job_id or manifest.get("size") != size:
        raise RendezvousError(
            f"world manifest mismatch: got job={manifest.get('job')!r} "
            f"size={manifest.get('size')!r}, expected job={job_id!r} "
            f"size={size}"
        )
    return manifest


def _rank_main(addr: tuple[int, tuple], job_id: str, rank: int, size: int,
               worker: Callable, args: tuple, kwargs: dict,
               perf: Any | None, trace_on: bool, timeout: float,
               hb_interval: float, max_frame: int) -> None:
    sock = _connect_with_retry(addr, timeout, f"rank {rank}")
    sock.settimeout(_read_bound(timeout))
    conn = SocketChannel(sock, max_frame=max_frame)
    hb = None
    try:
        conn.send(("hello", job_id, rank, os.getpid()))
        obj, _ = conn.recv()            # blocks until the world assembled
        _expect_welcome(obj, job_id, size)
        # no shm data plane: on a multi-host transport every payload
        # must actually travel, and transport accounting counts whole
        # frames (header included) — the bytes that really hit the wire
        comm = ProcessCommunicator(conn, rank, size, perf=perf)
        hb = _Heartbeat(conn, hb_interval)
        comm._heartbeat = hb            # the world communicator's only
        hb.start()
        _run_worker(conn, comm, worker, args, kwargs, perf, trace_on)
    finally:
        if hb is not None:
            hb.stop()
        conn.close()


# ----------------------------------------------------------------------
# host side
# ----------------------------------------------------------------------


def _host_main(addr: tuple[int, tuple], job_id: str, host_id: int,
               ranks: list[int], size: int, worker: Callable, args: tuple,
               kwargs: dict, perf_by_rank: dict, trace_on: bool,
               timeout: float, hb_interval: float, max_frame: int) -> None:
    """One loopback "host": fork the local rank processes, then hold a
    control connection to the router (manifest + heartbeats) until told
    to shut down — at which point the local ranks are reaped.  Killing
    this process is the "host died" fault: its control EOF (or heartbeat
    silence) makes the router declare every local rank dead."""
    ctx = _mp_context()
    procs = []
    for rank in ranks:
        procs.append(ctx.Process(
            target=_rank_main,
            args=(addr, job_id, rank, size, worker, args, kwargs,
                  perf_by_rank.get(rank), trace_on, timeout, hb_interval,
                  max_frame),
            name=f"spmd-tcp-rank-{rank}", daemon=True,
        ))
    for p in procs:
        p.start()

    def _reap(*_sig) -> None:
        for p in procs:
            try:
                p.terminate()
            except Exception:
                pass
        os._exit(1)

    # SIGTERM (engine cleanup) must not orphan the local ranks
    signal.signal(signal.SIGTERM, _reap)

    conn = None
    try:
        sock = _connect_with_retry(addr, timeout, f"host {host_id}")
        conn = SocketChannel(sock, max_frame=max_frame)
        sock.settimeout(_read_bound(timeout))
        conn.send(("host_hello", job_id, host_id, os.getpid(),
                   {r: p.pid for r, p in zip(ranks, procs)}))
        obj, _ = conn.recv()            # the bootstrap barrier
        _expect_welcome(obj, job_id, size)
        sock.settimeout(max(0.05, hb_interval))
        while True:
            try:
                obj, _ = conn.recv()
            except TimeoutError:
                try:
                    conn.send(("hb",))
                except (ChannelClosedError, FrameError):
                    break
                continue
            except ChannelClosedError:
                break                   # router gone: tear down
            if obj and obj[0] == "shutdown":
                break
    finally:
        for p in procs:
            p.terminate()
            p.join(timeout=5.0)
        if conn is not None:
            conn.close()


# ----------------------------------------------------------------------
# router (engine-parent) side
# ----------------------------------------------------------------------


class _PidHandle:
    """Process-handle shim for a grandchild rank process the parent can
    only reach by pid (the host, not the parent, forked it)."""

    __slots__ = ("pid",)

    def __init__(self, pid: int | None = None):
        self.pid = pid

    def is_alive(self) -> bool:
        if self.pid is None:
            return False
        try:
            os.kill(self.pid, 0)
            return True
        except OSError:
            return False

    def terminate(self) -> None:
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except OSError:
                pass


class _TcpRouter(_Router):
    """The process backend's router with what is genuinely tcp added:
    the rendezvous bootstrap over a listener, host control channels,
    heartbeat liveness, and host-death fan-out.  The event loop is the
    inherited one — this class only hooks its EOF and per-round tick."""

    def __init__(self, size: int, timeout: float, *,
                 listener: socket.socket, job_id: str,
                 topo: list[list[int]], hb_timeout: float,
                 max_frame: int):
        super().__init__(size, [None] * size,
                         [_PidHandle() for _ in range(size)], timeout)
        self.listener = listener
        self.job_id = job_id
        self.topo = topo
        self.hb_timeout = hb_timeout
        self.max_frame = max_frame
        # wake often enough for heartbeat accounting
        self.tick_interval = max(0.05, min(hb_timeout / 4.0, 0.25))
        #: every accepted connection -> ("rank" | "host", ordinal), or
        #: None until its hello claimed one
        self.peers: dict[SocketChannel, tuple[str, int] | None] = {}
        self.manifest: dict = {}
        self._host_pids: dict[int, int] = {}

    # -- bootstrap ------------------------------------------------------

    def bootstrap(self, budget: float) -> None:
        """Assemble the world: accept every rank and host connection,
        validate the hellos, then release everyone with the manifest."""
        deadline = time.monotonic() + budget
        need_ranks = set(range(self.size))
        need_hosts = set(range(len(self.topo)))
        while need_ranks or need_hosts:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RendezvousError(
                    f"rendezvous timed out after {budget:.1f}s: still "
                    f"missing rank(s) {sorted(need_ranks)} and host(s) "
                    f"{sorted(need_hosts)}"
                )
            for chan in multiprocessing.connection.wait(
                    [self.listener, *self.peers], min(remaining, 0.5)):
                if chan is self.listener:
                    self._accept()
                    continue
                try:
                    frames = chan.recv_ready()
                except ChannelClosedError:
                    claimed = self.peers.pop(chan)
                    chan.close()
                    if claimed is not None:
                        raise RendezvousError(
                            f"{claimed[0]} {claimed[1]} disconnected "
                            f"during rendezvous"
                        )
                    continue
                for obj, _n in frames:
                    if obj and obj[0] == "hb":
                        continue
                    self._hello(chan, obj, need_ranks, need_hosts)
        port = self.listener.getsockname()[1]
        # the world is complete: a late knock is refused, not parked
        self.listener.close()
        self.manifest = {
            "job": self.job_id,
            "size": self.size,
            "transport": "tcp",
            "port": port,
            "hosts": {h: list(ranks) for h, ranks in enumerate(self.topo)},
            "host_pids": {h: p for h, p in self._host_pids.items()},
            "rank_pids": {r: self.procs[r].pid for r in range(self.size)},
        }
        welcome = ("welcome", self.manifest)
        for chan in self.control + self.conns:
            chan.send(welcome)

    def _hello(self, chan: SocketChannel, obj: Any, need_ranks: set[int],
               need_hosts: set[int]) -> None:
        kind, ident, pid, extra = check_hello(
            obj, job_id=self.job_id, size=self.size,
            n_hosts=len(self.topo),
            taken_ranks=set(range(self.size)) - need_ranks,
            taken_hosts=set(range(len(self.topo))) - need_hosts,
        )
        self.peers[chan] = (kind, ident)
        if kind == "rank":
            self.conns[ident] = chan
            self.procs[ident].pid = pid
            need_ranks.discard(ident)
        else:
            self.control.append(chan)
            self._host_pids[ident] = pid
            for rank, rank_pid in (extra or {}).items():
                if 0 <= rank < self.size and self.procs[rank].pid is None:
                    self.procs[rank].pid = rank_pid
            need_hosts.discard(ident)

    def _accept(self) -> None:
        try:
            sock, _addr = self.listener.accept()
        except OSError:
            return
        sock.setblocking(True)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.peers[SocketChannel(sock, max_frame=self.max_frame)] = None

    # -- liveness (the inherited loop's two hooks) ----------------------

    def _on_eof(self, chan: Channel, rank: int | None,
                exc: Exception) -> None:
        reason = (f"sent a broken frame ({exc})" if isinstance(exc, FrameError)
                  else "connection closed unexpectedly")
        chan.close()
        if rank is not None:
            self._on_crash(rank, f"rank {rank} {reason}")
        else:
            self._host_down(chan, reason)

    def _tick(self) -> None:
        super()._tick()
        now = time.monotonic()
        silent = f"went silent (no frames for {self.hb_timeout:.1f}s)"
        for rank in sorted(self.alive):
            if now - self.conns[rank].last_rx > self.hb_timeout:
                self.procs[rank].terminate()
                self.conns[rank].close()
                self._on_crash(rank, f"rank {rank} {silent}")
        for chan in list(self.control):
            if now - chan.last_rx > self.hb_timeout:
                self._host_down(chan, silent)

    def _host_down(self, chan: SocketChannel, reason: str) -> None:
        """A host died: every local rank not already finished dies with
        it (their processes are killed — they are orphans now)."""
        if chan not in self.control:
            return                      # already handled
        chan.close()
        self.control.remove(chan)
        host_id = self.peers[chan][1]
        for rank in self.topo[host_id]:
            if rank in self.finished:
                continue
            self.procs[rank].terminate()
            self._on_crash(
                rank, f"rank {rank} lost: host {host_id} {reason}"
            )

    # -- teardown helpers (called by the engine) ------------------------

    def close(self) -> None:
        """Tell the hosts to shut down, then slam every socket: EOF
        releases anything still parked."""
        for chan in self.control:
            try:
                chan.send(("shutdown",))
            except (ChannelClosedError, FrameError):
                pass
        for chan in self.peers:
            chan.close()

    def kill_stragglers(self) -> None:
        for handle in self.procs:
            if handle.is_alive():
                handle.terminate()


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


class TcpEngine(ProcessEngine):
    """Runs ranks as processes on loopback host groups over TCP.

    Inherits the process backend's retry supervisor verbatim: with a
    checkpoint config, rank/host death triggers respawn from the last
    sealed manifest with exponential backoff, elastically shrinking the
    world (p → p′) from the second restart.
    """

    name = "tcp"
    detects_deadlock = False

    #: diagnostic: the world manifest of the most recent bootstrap
    #: (job id, port, host→ranks map, pids); tests assert topology here
    last_world: dict = {}

    def _route(self, size: int, worker: Callable[..., Any], args: tuple,
               kwargs: dict, rank_perf: Sequence[Any] | None,
               timeout: float, trace_on: bool) -> _Router:
        topo = host_topology(size, resolve_tcp_hosts(size))
        hb_interval = resolve_hb_interval()
        hb_timeout = resolve_hb_timeout(hb_interval)
        max_frame = resolve_max_frame()
        job_id = f"tcp{os.getpid()}j{next(_JOB_SEQ)}"

        # deterministic port allocation: always an ephemeral bind —
        # never a fixed port, so concurrent jobs and CI can't collide
        listener = socket.create_server(
            ("127.0.0.1", 0), backlog=size + len(topo) + 2
        )
        # resolved once, here: every host and rank dials this numeric
        # sockaddr directly
        addr = (listener.family, listener.getsockname())

        ctx = _mp_context()
        hosts = []
        for host_id, ranks in enumerate(topo):
            perf_by_rank = (
                {r: rank_perf[r] for r in ranks}
                if rank_perf is not None else {}
            )
            hosts.append(ctx.Process(
                target=_host_main,
                args=(addr, job_id, host_id, list(ranks), size, worker,
                      args, kwargs, perf_by_rank, trace_on,
                      timeout, hb_interval, max_frame),
                name=f"spmd-tcp-host-{host_id}",
            ))
        for p in hosts:
            p.start()

        router = _TcpRouter(
            size, timeout,
            listener=listener, job_id=job_id, topo=topo,
            hb_timeout=hb_timeout, max_frame=max_frame,
        )
        try:
            router.bootstrap(_bootstrap_budget(timeout))
            type(self).last_world = dict(router.manifest)
            router.run()
        finally:
            router.close()
            listener.close()
            _join_or_terminate(hosts)
            router.kill_stragglers()
        return router

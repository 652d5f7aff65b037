"""The ``process`` backend: one OS process per rank, GIL-free compute.

Topology: the parent process runs a single-threaded *router*; each rank
is a child process connected to the router by one duplex
:class:`Channel` (a pipe here, a framed socket on the tcp backend, which
reuses everything below).  Children never talk to each other directly — every collective
and point-to-point message flows through the router, which matches them
with the same :class:`~.group.Group` core as the thread engine
(order-checked collectives, FIFO per-(source, tag) mailboxes).  A request
is ``("coll", spec, payload)``, ``("send", dest, tag, payload)`` or
``("recv", source, tag)``.

A collective travels as its name — a
:class:`~repro.runtime.collective.Collective` spec — so the router itself
finishes every step: when the last member arrives it calls
``spec.finish`` on the contributions and replies to every member at
once.  Two hops (rank → router → rank), no rank ever holds another
rank's contributions, and reduction operators are resolved by name in
the router process, which therefore must know them (they must exist at
import time, before the ranks fork).  The all-to-alls only move
blocks, one receiver each, and the block a rank addresses to itself
never leaves it (a placeholder travels instead).

One transport: every payload is pickled onto the rank's channel, on a
pipe here as on a socket under tcp.

Protocol discipline (deadlock freedom on the pipes): children write only
requests, the router writes only *replies* to a request it has already
read — abort notifications included, which are delivered as the reply to
each rank's pending or next request, never unsolicited.  Hence the two
sides are never blocked writing to each other simultaneously.

Perf model: nothing is priced here.  Each rank books its collectives
and point-to-point messages on its own ledger (``comm.perf``), sized
before any payload is pickled, so the ledger is the same on every
backend; the ledger's ``add_transport`` hook separately records the
bytes the rank *actually* pickled onto its channel.  A rank ships its
ledger home once, on its final message, and when the whole job
succeeded the parent's tracker takes it over (``merge_remote``) — so a
failed attempt of a supervised retry leaves the caller's trackers as
they were.

Start method: ``fork`` where available (workers and closures need no
pickling), overridable via ``REPRO_SPMD_START_METHOD``.  Under ``spawn``
the worker, its arguments and its return value must be picklable.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import pickle
import random
import time
import traceback
from abc import ABC, abstractmethod
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Sequence

from ..checkpoint import (
    CheckpointConfig,
    latest_manifest,
    shrink_size,
    with_resume,
)
from ..collective import Collective
from ..communicator import Communicator
from ..envutil import env_choice
from ..errors import (
    CollectiveAbortedError,
    CollectiveMismatchError,
    RemoteTraceback,
    SpmdError,
    SpmdWorkerError,
    WorkerCrashError,
)
from ..framing import FrameError
from .base import SpmdEngine
from .group import (
    Group,
    finish_error,
    raise_failures,
    recv_where,
    run_worker,
)

__all__ = [
    "Channel",
    "ChannelClosedError",
    "PipeChannel",
    "ProcessCommunicator",
    "ProcessEngine",
]

#: env var overriding the multiprocessing start method (fork/spawn/forkserver)
START_METHOD_ENV = "REPRO_SPMD_START_METHOD"

#: seconds the router waits for children to acknowledge an abort before
#: terminating them
_ABORT_GRACE = 10.0

_log = logging.getLogger("repro.runtime")


def _mp_context() -> multiprocessing.context.BaseContext:
    available = multiprocessing.get_all_start_methods()
    preferred = next((m for m in ("fork", "spawn") if m in available), None)
    return multiprocessing.get_context(
        env_choice(START_METHOD_ENV, available, preferred))


# ----------------------------------------------------------------------
# transport
# ----------------------------------------------------------------------


class ChannelClosedError(SpmdError):
    """The other end of a :class:`Channel` is gone (EOF, reset, broken
    connection) or this end was closed locally."""


class Channel(ABC):
    """One duplex connection carrying whole protocol messages.  Ranks,
    hosts and the router all speak through it, so both ends of every
    link share one implementation.  Byte counts are what really crossed (they feed the trackers'
    ``add_transport``).  A gone peer raises :class:`ChannelClosedError`,
    a damaged or oversize frame :class:`~repro.runtime.framing.FrameError`,
    and ``recv`` lets a socket read bound surface as ``TimeoutError``.
    """

    __slots__ = ()

    @abstractmethod
    def send(self, msg: Any) -> int:
        """Block until ``msg`` is written; returns its wire bytes."""

    @abstractmethod
    def recv(self) -> tuple[Any, int]:
        """Block for the next message; returns it and its wire bytes."""

    @abstractmethod
    def recv_ready(self) -> list[tuple[Any, int]]:
        """After ``fileno()`` polled readable: every message one read
        completes — none (a partial frame) up to several."""

    @abstractmethod
    def fileno(self) -> int:
        """The descriptor to poll for readability."""

    @abstractmethod
    def close(self) -> None:
        """Close this end (idempotent); the peer sees EOF."""


class PipeChannel(Channel):
    """A :class:`Channel` over one end of a ``multiprocessing.Pipe``:
    each message is one ``ForkingPickler`` blob."""

    __slots__ = ("_conn",)

    def __init__(self, conn: multiprocessing.connection.Connection):
        self._conn = conn

    def send(self, msg: Any) -> int:
        # explicit dumps + send_bytes (what Connection.send does inside)
        # so the serialized volume is measured exactly, for free
        buf = ForkingPickler.dumps(msg)
        try:
            self._conn.send_bytes(buf)
        except (OSError, ValueError) as exc:
            raise ChannelClosedError(f"pipe closed: {exc}") from exc
        return len(buf)

    def recv(self) -> tuple[Any, int]:
        try:
            buf = self._conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise ChannelClosedError(
                f"pipe closed: {str(exc) or type(exc).__name__}") from exc
        return pickle.loads(buf), len(buf)

    def recv_ready(self) -> list[tuple[Any, int]]:
        return [self.recv()]            # pipes are message-oriented

    def fileno(self) -> int:
        return self._conn.fileno()

    def close(self) -> None:
        self._conn.close()


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------


class ProcessCommunicator(Communicator):
    """Rank-side communicator: one :class:`Channel` to the router (a pipe
    on the process backend, a framed socket on tcp)."""

    def __init__(self, conn: Channel, rank: int, size: int,
                 perf: Any | None = None):
        super().__init__(rank, size, perf=perf)
        self._conn = conn

    # -- channel IO (each transfer counted by perf.add_transport) -------

    def _send_msg(self, msg: tuple) -> None:
        try:
            nbytes = self._conn.send(msg)
        except ChannelClosedError as exc:
            raise CollectiveAbortedError(
                f"connection to the job coordinator lost: {exc}"
            ) from exc
        self.perf.add_transport(nbytes, 0)

    def _recv_msg(self) -> tuple:
        try:
            msg, nbytes = self._conn.recv()
        except TimeoutError as exc:      # socket read bound expired
            raise CollectiveAbortedError(
                "no reply from the job coordinator within the read "
                "bound — coordinator unreachable?"
            ) from exc
        except ChannelClosedError as exc:
            raise CollectiveAbortedError(
                f"connection to the job coordinator lost: {exc}"
            ) from exc
        self.perf.add_transport(nbytes, 0)
        return msg

    # -- request/reply core --------------------------------------------

    def _request(self, msg: tuple) -> Any:
        self._send_msg(msg)
        reply = self._recv_msg()
        kind = reply[0]
        if kind == "result":
            return reply[1]
        if kind == "mismatch":
            raise CollectiveMismatchError(reply[1])
        if kind == "abort":
            _, message, origin, tb = reply
            err = CollectiveAbortedError(message, origin_rank=origin)
            if tb:
                err.__cause__ = RemoteTraceback(tb)
            raise err
        raise RuntimeError(f"unexpected engine reply {kind!r}")

    # -- engine primitives ---------------------------------------------

    def _exchange_impl(self, spec, payload):
        if spec.transposes:
            # the block addressed to this rank stays where it is: a
            # placeholder travels and the router's transposition hands it
            # back in the same place
            own, payload = payload[self.rank], list(payload)
            payload[self.rank] = None
        result = self._request(("coll", spec, payload))
        if spec.transposes:
            result[self.rank] = own
        return result

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_peer(dest, "dest")
        self.perf.add_send(dest, obj)
        # fire-and-forget: buffered send, no reply expected
        self._send_msg(("send", dest, tag, obj))

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_peer(source, "source")
        payload = self._request(("recv", source, tag))
        self.perf.add_recv(source, payload)
        return payload


def _run_worker(conn: Channel, comm: ProcessCommunicator, worker: Callable,
                args: tuple, kwargs: dict, perf: Any | None,
                trace_on: bool) -> None:
    """Run ``worker`` on one rank and report its outcome over ``conn``
    using the final-message protocol the router understands (``done`` /
    ``aborted`` / ``error``, each carrying the perf tracker and the trace
    events).  Shared by the process and TCP backends."""
    # traces ride home on the final protocol message, whatever its kind,
    # so a worker abort still delivers the events recorded before it
    events = comm.trace_events = [] if trace_on else None

    def final(msg: tuple) -> None:
        try:
            conn.send(msg)
        except ChannelClosedError:
            pass                # router already gone; nobody left to tell

    kind, value, tb = run_worker(worker, comm, args, kwargs)
    if kind == "aborted":
        final(("aborted", str(value), value.origin_rank, tb, perf, events))
    elif kind == "error":
        try:
            blob = pickle.dumps(value)
        except Exception:
            blob = None
        final(("error", f"{type(value).__name__}: {value}", tb, blob,
               perf, events))
    else:
        try:
            final(("done", value, perf, events))
        except Exception as exc:      # unpicklable worker result
            final(("error",
                   f"worker result not transferable: "
                   f"{type(exc).__name__}: {exc}",
                   traceback.format_exc(), None, perf, events))


def _child_main(conn: Any, rank: int, size: int, worker: Callable,
                args: tuple, kwargs: dict, perf: Any | None,
                trace_on: bool = False) -> None:
    conn = PipeChannel(conn)
    comm = ProcessCommunicator(conn, rank, size, perf=perf)
    try:
        _run_worker(conn, comm, worker, args, kwargs, perf, trace_on)
    finally:
        conn.close()


def _child_main_fork(child_ends: list, parent_ends: list, rank: int,
                     size: int, worker: Callable, args: tuple,
                     kwargs: dict, perf: Any | None,
                     trace_on: bool = False) -> None:
    # under fork every child inherits every pipe end; close all but ours so
    # the router sees EOF promptly when any single rank dies
    for r, (c, p) in enumerate(zip(child_ends, parent_ends)):
        p.close()
        if r != rank:
            c.close()
    _child_main(child_ends[rank], rank, size, worker, args, kwargs, perf,
                trace_on)


# ----------------------------------------------------------------------
# parent side (router)
# ----------------------------------------------------------------------


class _Pending:
    """One child's outstanding blocking request: the call it waits in
    (named as the thread engine names it), its deadline, and for a
    receive the ``(source, tag)`` it waits for."""

    __slots__ = ("where", "deadline", "recv")

    def __init__(self, where: str, deadline: float,
                 recv: tuple[int, int] | None = None):
        self.where = where
        self.deadline = deadline
        self.recv = recv


class _Router:
    """Single-threaded event loop serving requests from rank channels.
    Matching is the shared :class:`~.group.Group` core; here live the
    request/reply protocol around it, the job-wide abort and the
    deadlines."""

    #: longest the loop may sleep between ticks (None: until a deadline)
    tick_interval: float | None = None

    def __init__(self, size: int, conns: list, procs: list,
                 timeout: float):
        self.size = size
        self.conns = conns              # rank -> Channel
        #: channels watched for EOF only (no rank behind them)
        self.control: list[Channel] = []
        self.procs = procs
        self.timeout = timeout
        self.world = Group(size)
        self.pending: dict[int, _Pending] = {}
        self.alive: set[int] = set(range(size))
        self.results: list = [None] * size
        #: the ledger each rank shipped home on its final message
        self.perfs: dict[int, Any] = {}
        self.traces: dict[int, list] = {}
        self.finished: set[int] = set()
        self.failures: dict[int, BaseException] = {}
        self.tracebacks: dict[int, str] = {}
        self.error: CollectiveAbortedError | None = None
        self.error_tb: str = ""
        self.kill_deadline: float | None = None

    # -- replies --------------------------------------------------------

    def _reply(self, rank: int, msg: tuple) -> None:
        try:
            self.conns[rank].send(msg)
        except ChannelClosedError:
            pass                        # child already gone; EOF handles it

    def _reply_result(self, rank: int, value: Any) -> None:
        self.pending.pop(rank, None)
        self._reply(rank, ("result", value))

    def _reply_abort(self, rank: int) -> None:
        self.pending.pop(rank, None)
        self._reply(rank, ("abort", str(self.error),
                           self.error.origin_rank, self.error_tb))

    # -- abort management ----------------------------------------------

    def _set_error(self, message: str, origin: int | None,
                   tb: str = "") -> None:
        if self.error is not None:
            return
        self.error = CollectiveAbortedError(message, origin_rank=origin)
        if tb:
            self.error.__cause__ = RemoteTraceback(tb)
        self.error_tb = tb
        self.kill_deadline = time.monotonic() + _ABORT_GRACE
        for rank in list(self.pending):
            self._reply_abort(rank)

    def _on_crash(self, rank: int, message: str | None = None) -> None:
        self.alive.discard(rank)
        if rank not in self.finished:
            self.finished.add(rank)
            message = message or \
                f"rank {rank} worker process died unexpectedly"
            self.failures[rank] = WorkerCrashError(message)
            self._set_error(message, rank)

    # -- per-message handling ------------------------------------------

    def _arrive(self, rank: int, spec: Collective, payload: Any) -> None:
        """A rank entered a collective; the last one in finishes it."""
        if self.error is not None:
            self._reply_abort(rank)
            return
        world = self.world
        op = spec.name
        try:
            last = world.arrive(rank, op, payload)
        except CollectiveMismatchError as exc:
            # the offender and every peer parked in the step raise it
            for member in [rank] + world.take_step()[2]:
                self.pending.pop(member, None)
                self._reply(member, ("mismatch", str(exc)))
            return
        self.pending[rank] = _Pending(world.where(),
                                      time.monotonic() + self.timeout)
        if not last:
            return
        _, contribs, _ = world.take_step()
        try:
            results = spec.finish(contribs)
        except Exception as exc:        # a job-wide typed abort
            self._set_error(str(finish_error(op, rank, exc)), rank,
                            traceback.format_exc())
            return
        for member, result in enumerate(results):
            self._reply_result(member, result)

    def _on_send(self, rank: int, msg: tuple) -> None:
        _, dest, tag, payload = msg
        if self.error is not None:
            return
        self.world.post(rank, dest, tag, payload)
        # hand the message straight to a receiver parked waiting for it
        p = self.pending.get(dest)
        if p is not None and p.recv is not None:
            found, payload = self.world.match(dest, *p.recv)
            if found:
                self._reply_result(dest, payload)

    def _on_recv(self, rank: int, msg: tuple) -> None:
        _, source, tag = msg
        if self.error is not None:
            self._reply_abort(rank)
            return
        found, payload = self.world.match(rank, source, tag)
        if found:
            self._reply_result(rank, payload)
        else:
            self.pending[rank] = _Pending(
                recv_where(source, tag), time.monotonic() + self.timeout,
                (source, tag))

    def _on_final(self, rank: int, msg: tuple) -> None:
        kind = msg[0]
        self.finished.add(rank)
        self.alive.discard(rank)
        self.pending.pop(rank, None)
        # every final message ends (…, perf tracker, trace events)
        if msg[-2] is not None:
            self.perfs[rank] = msg[-2]
        if msg[-1] is not None:
            self.traces[rank] = msg[-1]
        if kind == "done":
            self.results[rank] = msg[1]
        elif kind == "aborted":
            _, message, origin, tb, _perf, _events = msg
            self.failures[rank] = CollectiveAbortedError(
                message, origin_rank=origin
            )
            self.tracebacks[rank] = tb
        else:                           # "error"
            _, message, tb, blob_exc, _perf, _events = msg
            exc: BaseException | None = None
            if blob_exc is not None:
                try:
                    exc = pickle.loads(blob_exc)
                except Exception:
                    exc = None
            if exc is None:
                exc = WorkerCrashError(
                    f"rank {rank}: {message} (original exception not "
                    f"transferable)"
                )
            exc.__cause__ = RemoteTraceback(tb)
            self.failures[rank] = exc
            self.tracebacks[rank] = tb
            self._set_error(f"rank {rank} aborted: {message}", rank, tb)

    def _handle(self, rank: int, msg: tuple) -> None:
        kind = msg[0]
        if kind == "coll":
            _, spec, payload = msg
            self._arrive(rank, spec, payload)
        elif kind == "send":
            self._on_send(rank, msg)
        elif kind == "recv":
            self._on_recv(rank, msg)
        elif kind in ("done", "aborted", "error"):
            self._on_final(rank, msg)
        elif kind == "hb":
            pass    # tcp heartbeat: reading it already refreshed liveness
        else:
            raise RuntimeError(f"unexpected engine request {kind!r}")

    # -- timeouts -------------------------------------------------------

    def _tick(self) -> None:
        """Once per loop round, after the ready channels were served:
        enforce the abort grace period and the per-request deadlines."""
        now = time.monotonic()
        if self.kill_deadline is not None and now >= self.kill_deadline:
            # children ignored the abort: force-terminate the stragglers
            for rank in sorted(self.alive):
                self.procs[rank].terminate()
                if rank not in self.finished:
                    self.finished.add(rank)
                    self.failures.setdefault(rank, WorkerCrashError(
                        f"rank {rank} terminated after abort grace period"
                    ))
            self.alive.clear()
            return
        expired = sorted(
            r for r, p in self.pending.items() if now >= p.deadline
        )
        if not expired:
            return
        detail = "; ".join(f"rank {r} in {self.pending[r].where}"
                           for r in expired)
        self._set_error(
            f"timed out after {self.timeout:.1f}s: {detail}", None
        )

    def _wait_timeout(self) -> float | None:
        deadlines = [p.deadline for p in self.pending.values()]
        if self.kill_deadline is not None:
            deadlines.append(self.kill_deadline)
        if self.tick_interval is not None:
            deadlines.append(time.monotonic() + self.tick_interval)
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    # -- main loop ------------------------------------------------------

    def _on_eof(self, chan: Channel, rank: int | None,
                exc: Exception) -> None:
        """``chan`` (``rank``'s, or a control channel when ``None``)
        closed or delivered a broken frame."""
        if rank is not None:
            self._on_crash(rank)

    def run(self) -> None:
        rank_of = {chan: rank for rank, chan in enumerate(self.conns)}
        while self.alive:
            ready = multiprocessing.connection.wait(
                [self.conns[r] for r in self.alive] + self.control,
                timeout=self._wait_timeout(),
            )
            for chan in ready:
                rank = rank_of.get(chan)
                if rank is not None and rank not in self.alive:
                    continue            # died earlier in this round
                try:
                    msgs = chan.recv_ready()
                except (ChannelClosedError, FrameError) as exc:
                    self._on_eof(chan, rank, exc)
                    continue
                if rank is not None:    # control channels only carry hb
                    for msg, _nbytes in msgs:
                        self._handle(rank, msg)
            self._tick()

    def outcome(self, trace: Any | None,
                rank_perf: Sequence[Any] | None) -> list:
        """After :meth:`run`: deliver the traces, then the per-rank
        results — or the job's :class:`SpmdWorkerError`.  Only a job that
        succeeded hands its ranks' ledgers over to ``rank_perf``."""
        if trace is not None:
            # a hard-killed rank never sends its final message, so it is
            # simply absent here — the checker reports the truncation
            for rank, events in sorted(self.traces.items()):
                trace.deliver(rank, events)
        raise_failures(self.failures, self.tracebacks)
        if rank_perf is not None:
            for rank, perf in self.perfs.items():
                rank_perf[rank].merge_remote(perf)
        return self.results


def _join_or_terminate(procs: list) -> None:
    """Join finished processes, terminating any that outlive the grace."""
    for p in procs:
        p.join(timeout=_ABORT_GRACE)
        if p.is_alive():
            p.terminate()
            p.join(timeout=1.0)


def _is_recoverable(err: SpmdWorkerError) -> bool:
    """True when every failure is a rank death or an abort echo — i.e.
    no worker raised an exception of its own, so respawning from a
    checkpoint can plausibly succeed (a deterministic worker bug would
    just recur)."""
    return all(
        isinstance(e, (CollectiveAbortedError, WorkerCrashError))
        for e in err.failures.values()
    )


class ProcessEngine(SpmdEngine):
    """Runs ranks as OS processes coordinated by an in-parent router.

    With a :class:`~repro.runtime.checkpoint.CheckpointConfig` the engine
    additionally acts as a *retry supervisor*: when a job dies of rank
    death or pipe timeout (never of a worker-raised exception) and a
    complete checkpoint manifest exists, the workers are respawned — with
    exponential, jittered backoff — resuming from that manifest.  From
    the second restart on, an elastic config halves the world size per
    attempt (p → p′ re-sharding on resume), so a persistently failing
    rank degrades the job instead of killing it.
    """

    name = "process"
    detects_deadlock = False

    #: diagnostic: (attempt, size) of every run the most recent job made
    last_attempts: tuple[tuple[int, int], ...] = ()

    def run(
        self,
        size: int,
        worker: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict | None = None,
        *,
        rank_perf: Sequence[Any] | None = None,
        timeout: float | None = None,
        trace: Any | None = None,
        checkpoint: Any | None = None,
    ) -> list:
        kwargs = dict(kwargs or {})
        cfg = checkpoint if isinstance(checkpoint, CheckpointConfig) else None
        if cfg is None and isinstance(kwargs.get("checkpoint"),
                                      CheckpointConfig):
            cfg = kwargs["checkpoint"]

        cur_size = size
        attempt = 0
        attempts: list[tuple[int, int]] = []
        while True:
            attempts.append((attempt, cur_size))
            type(self).last_attempts = tuple(attempts)
            try:
                return self._run_once(
                    cur_size, worker, tuple(args), kwargs,
                    rank_perf[:cur_size] if rank_perf is not None else None,
                    timeout, trace,
                )
            except SpmdWorkerError as err:
                if cfg is None or attempt >= cfg.max_restarts \
                        or not _is_recoverable(err):
                    raise
                manifest = latest_manifest(cfg.dir)
                if manifest is None:
                    raise               # nothing to resume from
                attempt += 1
                if cfg.elastic and attempt >= 2:
                    cur_size = shrink_size(cur_size, cfg)
                delay = min(cfg.backoff_cap,
                            cfg.backoff_base * 2 ** (attempt - 1))
                if delay > 0 and cfg.jitter:
                    delay *= 1 + cfg.jitter * (2 * random.random() - 1)
                _log.warning(
                    "job failed (%s); restart %d/%d on %d rank(s) from %s "
                    "in %.2fs", err, attempt, cfg.max_restarts, cur_size,
                    manifest, delay)
                if delay > 0:
                    time.sleep(delay)
                kwargs = {**kwargs, "checkpoint": with_resume(cfg, manifest)}

    def _run_once(self, size: int, worker: Callable[..., Any], args: tuple,
                  kwargs: dict, rank_perf: Sequence[Any] | None,
                  timeout: float, trace: Any | None) -> list:
        """One attempt: launch a world, route it to completion, tear it
        down, and report its outcome."""
        if trace is not None:
            trace.begin(size, backend=self.name)
        router = self._route(size, worker, args, kwargs, rank_perf, timeout,
                             trace is not None)
        return router.outcome(trace, rank_perf)

    def _route(self, size: int, worker: Callable[..., Any], args: tuple,
               kwargs: dict, rank_perf: Sequence[Any] | None,
               timeout: float, trace_on: bool) -> _Router:
        ctx = _mp_context()
        fork = ctx.get_start_method() == "fork"
        pipes = [ctx.Pipe(duplex=True) for _ in range(size)]
        parent_ends = [p for p, _c in pipes]
        child_ends = [c for _p, c in pipes]

        procs = []
        for rank in range(size):
            perf = rank_perf[rank] if rank_perf is not None else None
            if fork:
                target, pargs = _child_main_fork, (
                    child_ends, parent_ends, rank, size,
                    worker, args, kwargs, perf, trace_on,
                )
            else:
                target, pargs = _child_main, (
                    child_ends[rank], rank, size,
                    worker, args, kwargs, perf, trace_on,
                )
            procs.append(ctx.Process(
                target=target, args=pargs,
                name=f"spmd-rank-{rank}", daemon=True,
            ))
        for p in procs:
            p.start()
        for c in child_ends:
            c.close()

        chans = [PipeChannel(p) for p in parent_ends]
        router = _Router(size, chans, procs, timeout)
        try:
            router.run()
        finally:
            _join_or_terminate(procs)
            for c in chans:
                c.close()
        return router

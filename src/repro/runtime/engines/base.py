"""SPMD engine contract, registry and the dispatching :func:`run_spmd`.

An *engine* (or *backend*) is a strategy for executing the ``size``
logical ranks of an SPMD job.  Every engine provides the same programming
model — each rank runs ``worker(comm, *args, **kwargs)`` against a
:class:`~repro.runtime.communicator.Communicator` honoring MPI collective
semantics, collective-order verification, abort-on-failure, and the
observer/performance hooks — but engines differ in *how* ranks execute:

``thread``
    One Python thread per rank, at most one running per core.
    Shared-memory payloads, targeted wakes, and structural (instant)
    deadlock detection instead of timed waits.
``process``
    One OS process per rank (GIL-free; real wall-clock parallelism).
    Payloads travel over pipes through a parent-side router.
``tcp``
    One OS process per rank, grouped into loopback "hosts" coordinated
    over CRC-framed TCP sockets (the multi-host engine).

The registry is lazy: backends are registered as factories and only
imported when first requested, so e.g. ``multiprocessing`` machinery is
never touched by thread-only runs.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from typing import Any, Callable, Protocol, Sequence

from ..envutil import env_choice, env_float

__all__ = [
    "CommObserver",
    "DEFAULT_BACKEND",
    "DEFAULT_TIMEOUT",
    "SpmdEngine",
    "available_backends",
    "get_engine",
    "register_engine",
    "resolve_backend",
    "resolve_timeout",
    "run_spmd",
]

#: default seconds a rank may wait inside one communication call before
#: the job is aborted (engines with structural deadlock detection ignore it)
DEFAULT_TIMEOUT = 120.0

#: environment override for the wait timeout (seconds, float)
TIMEOUT_ENV = "REPRO_SPMD_TIMEOUT"

#: environment override for the default backend name
BACKEND_ENV = "REPRO_SPMD_BACKEND"

DEFAULT_BACKEND = "thread"


def resolve_timeout(timeout: float | None = None) -> float:
    """Pick the effective communication-wait timeout.

    Precedence: explicit ``timeout`` argument, then the
    ``REPRO_SPMD_TIMEOUT`` environment variable, then
    :data:`DEFAULT_TIMEOUT`.  CI sets the env var low to fail fast; long
    sweeps raise it so slow combine phases never spuriously abort.
    """
    if timeout is None:
        timeout = env_float(TIMEOUT_ENV, DEFAULT_TIMEOUT)
    if timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    return float(timeout)


def resolve_backend(backend: str | None = None) -> str:
    """Pick the effective backend name: explicit argument, then the
    ``REPRO_SPMD_BACKEND`` environment variable (which must name a
    registered backend), then ``"thread"``."""
    if backend is not None:
        return backend
    return env_choice(BACKEND_ENV, available_backends(), DEFAULT_BACKEND)


class CommObserver(Protocol):
    """Callbacks invoked by the engine, always under the engine lock and
    exactly once per communication event (regardless of rank count)."""

    def on_collective(
        self, op: str, sent: list[int], recv: list[int], size: int
    ) -> None:
        """One collective step completed; byte counts are per rank."""

    def on_ptp(self, source: int, dest: int, nbytes: int) -> None:
        """One point-to-point message was delivered."""


class SpmdEngine(ABC):
    """Execution strategy for one SPMD job.

    Engines are stateless singletons: all per-job state lives inside
    :meth:`run`, so a failed job can never poison the next one and
    concurrent jobs on one engine are safe.
    """

    #: registry name of the backend
    name: str = "?"

    #: True when the engine detects deadlocks structurally (making the
    #: wait timeout irrelevant); False when it relies on timed waits
    detects_deadlock: bool = False

    @abstractmethod
    def run(
        self,
        size: int,
        worker: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: dict | None = None,
        *,
        observer: CommObserver | None = None,
        rank_perf: Sequence[Any] | None = None,
        timeout: float | None = None,
        trace: Any | None = None,
        checkpoint: Any | None = None,
    ) -> list:
        """Execute ``worker(comm, *args, **kwargs)`` on ``size`` ranks and
        return the per-rank results in rank order; raise
        :class:`~repro.runtime.errors.SpmdWorkerError` if any rank failed.

        Engines are entered through :func:`run_spmd`, which has already
        validated ``size`` / ``rank_perf`` and resolved ``timeout`` to a
        positive number of seconds — engines do not repeat either.

        ``checkpoint`` is an optional
        :class:`~repro.runtime.checkpoint.CheckpointConfig` the dispatcher
        has already threaded into the worker's kwargs; engines that
        support supervised retry (the process backend) use it to respawn
        a crashed job from its last manifest, others may ignore it.

        ``trace`` is an optional
        :class:`~repro.runtime.tracing.TraceCollector`: the engine must
        call ``trace.begin(size, backend=...)`` before ranks start, attach
        a :class:`~repro.runtime.tracing.TraceRecorder` as each world
        communicator's ``_tracer``, and ``trace.deliver(rank, events)``
        every rank's events after the job — including failed jobs, so
        partial traces survive aborts.  A rank that died without handing
        anything over is simply never delivered."""


_FACTORIES: dict[str, Callable[[], SpmdEngine]] = {}
_ENGINES: dict[str, SpmdEngine] = {}


def register_engine(name: str, factory: Callable[[], SpmdEngine],
                    *, replace: bool = False) -> None:
    """Register a backend under ``name``.

    ``factory`` is called at most once, on first :func:`get_engine` use.
    Third-party engines plug in here; ``replace=True`` allows overriding
    a built-in (e.g. an instrumented engine in tests).
    """
    if not replace and name in _FACTORIES:
        raise ValueError(f"backend {name!r} is already registered")
    _FACTORIES[name] = factory
    _ENGINES.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends, in registration order."""
    return tuple(_FACTORIES)


def get_engine(name: str | None = None) -> SpmdEngine:
    """Resolve a backend name (see :func:`resolve_backend`) to its engine
    instance, instantiating it on first use."""
    name = resolve_backend(name)
    engine = _ENGINES.get(name)
    if engine is None:
        try:
            factory = _FACTORIES[name]
        except KeyError:
            raise ValueError(
                f"unknown SPMD backend {name!r}; "
                f"available: {', '.join(available_backends())}"
            ) from None
        engine = _ENGINES[name] = factory()
    return engine


def _worker_accepts_checkpoint(worker: Callable[..., Any]) -> bool:
    """True when ``worker`` can receive a ``checkpoint=`` keyword."""
    try:
        sig = inspect.signature(worker)
    except (TypeError, ValueError):
        return False
    for param in sig.parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if param.name == "checkpoint" and param.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return True
    return False


def run_spmd(
    size: int,
    worker: Callable[..., Any],
    args: Sequence[Any] = (),
    kwargs: dict | None = None,
    *,
    observer: CommObserver | None = None,
    rank_perf: Sequence[Any] | None = None,
    backend: str | None = None,
    timeout: float | None = None,
    trace: Any | None = None,
    checkpoint: Any | None = None,
) -> list:
    """Run ``worker(comm, *args, **kwargs)`` on ``size`` logical ranks.

    Parameters
    ----------
    size:
        Number of ranks (the simulated machine's processor count).
    worker:
        The SPMD function; receives its rank's
        :class:`~repro.runtime.communicator.Communicator` first.
    args, kwargs:
        Extra arguments passed *identically* to every rank (like argv of
        an MPI job).  Per-rank data must be derived from ``comm.rank``.
    observer:
        Optional :class:`CommObserver` (e.g. the perf model's clock);
        invoked exactly once per communication event on every backend.
    rank_perf:
        Optional per-rank tracker objects exposed as ``comm.perf``.
    backend:
        Engine name (``"thread"``, ``"process"``, ``"tcp"``, or any
        registered extension); ``None`` defers to the
        ``REPRO_SPMD_BACKEND`` environment variable, then ``"thread"``.
    timeout:
        Seconds a rank may wait inside one communication call before the
        job aborts; ``None`` defers to ``REPRO_SPMD_TIMEOUT``, then 120.
        Ignored by engines with structural deadlock detection
        (``thread``).
    trace:
        Collective-trace control.  A
        :class:`~repro.runtime.tracing.TraceCollector` records every
        rank's collective calls into it (the caller checks/reports);
        ``True`` makes a fresh collector, retrievable afterwards via
        :func:`~repro.runtime.tracing.last_trace_collector`; ``None``
        defers to the ``REPRO_SPMD_TRACE`` environment variable, under
        which the runtime additionally conformance-checks the finished
        job itself and raises
        :class:`~repro.runtime.tracing.TraceConformanceError` on
        divergence.
    checkpoint:
        Level-checkpointing control: a
        :class:`~repro.runtime.checkpoint.CheckpointConfig`, a directory
        path (default policy), or ``None`` to defer to the
        ``REPRO_SPMD_CHECKPOINT`` environment variable.  The resolved
        config is passed to the worker as a ``checkpoint=`` keyword (the
        worker must accept one — when only the env var asked for
        checkpointing, workers without the keyword silently run without
        it) and to the engine, whose supervised retry (process backend)
        respawns crashed/timed-out jobs from the last manifest.

    Returns
    -------
    list
        Per-rank return values of ``worker``, in rank order.

    Raises
    ------
    SpmdWorkerError
        If any rank raised; carries all per-rank failures plus their
        formatted tracebacks (``.failures`` / ``.tracebacks``).
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if rank_perf is not None and len(rank_perf) != size:
        raise ValueError("rank_perf must supply one tracker per rank")
    from ..checkpoint import resolve_checkpoint
    from ..tracing import resolve_trace
    ckpt_cfg = resolve_checkpoint(checkpoint)
    if ckpt_cfg is not None:
        if _worker_accepts_checkpoint(worker):
            kwargs = dict(kwargs or {})
            kwargs.setdefault("checkpoint", ckpt_cfg)
        elif checkpoint is not None:
            raise TypeError(
                f"checkpoint= was given but worker "
                f"{getattr(worker, '__name__', worker)!r} does not accept a "
                f"'checkpoint' keyword"
            )
        else:
            ckpt_cfg = None     # env-enabled, but this worker can't resume
    collector, auto_check = resolve_trace(trace)
    results = get_engine(backend).run(
        size, worker, args, kwargs,
        observer=observer, rank_perf=rank_perf,
        timeout=resolve_timeout(timeout),
        trace=collector,
        checkpoint=ckpt_cfg,
    )
    if auto_check and collector is not None:
        collector.check().raise_if_failed()
    return results

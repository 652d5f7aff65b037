"""Simulated SPMD message-passing runtime (the repo's "MPI" substrate).

The ScalParC paper runs on MPI over a Cray T3D.  This package provides a
faithful stand-in: logical ranks, the MPI-1-style collectives ScalParC
uses over numpy buffers, blocking point-to-point messaging,
collective-order verification, and a per-rank ledger (``comm.perf``) of
every byte that moves, which the performance model prices after the run.

*How* ranks execute is pluggable (see :mod:`repro.runtime.engines`):
``backend="thread"`` (default) runs ranks as threads, at most one
running per core, with structural deadlock detection; ``"process"`` as
OS processes (GIL-free compute); and ``"tcp"`` as processes grouped into
loopback "hosts" speaking framed TCP — the multi-host engine (see
:mod:`repro.runtime.framing`).
All algorithm code is engine-agnostic — it only ever sees the
:class:`Communicator` API.

Quick use::

    from repro.runtime import run_spmd, reduction

    def worker(comm):
        total = comm.allreduce(np.int64(comm.rank), reduction.SUM)
        return int(total)

    assert run_spmd(4, worker) == [6, 6, 6, 6]
    assert run_spmd(4, worker, backend="process") == [6, 6, 6, 6]
"""

from .._lazy import lazy_exports

#: submodule → the public names it defines (``reduction`` exports
#: itself).  Names load on first use (PEP 562): a process that only
#: frames messages or writes durable files (the serving stack) never
#: imports the engines, the tracer or the shared-memory data plane.
_MODULES = {
    "checkpoint": (
        "CHECKPOINT_ENV", "CheckpointConfig", "CheckpointError",
        "LevelCheckpointer", "LoadedCheckpoint", "latest_manifest",
        "resolve_checkpoint",
    ),
    "communicator": ("Communicator", "NullPerf", "SelfCommunicator"),
    "engines": (
        "DEFAULT_BACKEND", "DEFAULT_TIMEOUT", "SpmdEngine",
        "available_backends", "get_engine", "register_engine",
        "resolve_backend", "resolve_timeout", "run_spmd",
    ),
    "engines.thread": ("ThreadCommunicator",),
    "errors": (
        "CollectiveAbortedError", "CollectiveMismatchError",
        "InvalidRankError", "RemoteTraceback", "SpmdError", "SpmdWorkerError",
        "WorkerCrashError",
    ),
    "framing": (
        "DEFAULT_MAX_FRAME", "FrameAssembler", "FrameCorruptedError",
        "FrameError", "FrameOversizeError", "FrameTruncatedError",
        "MAX_FRAME_ENV", "decode_frame", "encode_frame", "resolve_max_frame",
    ),
    "fusion": ("FusedBatch", "FusedFuture", "FusionError"),
    "payload": ("payload_nbytes",),
    "reduction": ("ReduceOp", "make_op", "reduction"),
    "shm": (
        "DEFAULT_SHM_THRESHOLD", "SHM_THRESHOLD_ENV", "ShmAttachCache",
        "ShmDescriptor", "ShmPool", "decode_payload", "encode_payload",
        "resolve_shm_threshold",
    ),
    "tracing": (
        "LogicalOp", "TraceCollector", "TraceConformanceError", "TraceEvent",
        "check_traces", "format_trace_report", "last_trace_collector",
        "logical_ops", "trace_enabled",
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items()
            for name in names}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

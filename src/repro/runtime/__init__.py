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

from . import reduction
from .checkpoint import (
    CHECKPOINT_ENV,
    CheckpointConfig,
    CheckpointError,
    LevelCheckpointer,
    LoadedCheckpoint,
    latest_manifest,
    resolve_checkpoint,
)
from .communicator import Communicator, NullPerf, SelfCommunicator
from .engines import (
    DEFAULT_BACKEND,
    DEFAULT_TIMEOUT,
    SpmdEngine,
    available_backends,
    get_engine,
    register_engine,
    resolve_backend,
    resolve_timeout,
    run_spmd,
)
from .errors import (
    CollectiveAbortedError,
    CollectiveMismatchError,
    InvalidRankError,
    RemoteTraceback,
    SpmdError,
    SpmdWorkerError,
    WorkerCrashError,
)
from .framing import (
    DEFAULT_MAX_FRAME,
    FrameAssembler,
    FrameCorruptedError,
    FrameError,
    FrameOversizeError,
    FrameTruncatedError,
    MAX_FRAME_ENV,
    decode_frame,
    encode_frame,
    resolve_max_frame,
)
from .fusion import FusedBatch, FusedFuture, FusionError
from .payload import payload_nbytes
from .reduction import ReduceOp, make_op
from .shm import (
    DEFAULT_SHM_THRESHOLD,
    SHM_THRESHOLD_ENV,
    ShmAttachCache,
    ShmDescriptor,
    ShmPool,
    decode_payload,
    encode_payload,
    resolve_shm_threshold,
)
from .engines.thread import ThreadCommunicator
from .tracing import (
    LogicalOp,
    TraceCollector,
    TraceConformanceError,
    TraceEvent,
    TraceRecorder,
    check_traces,
    format_trace_report,
    last_trace_collector,
    logical_ops,
    tag_level,
    trace_enabled,
)

__all__ = [
    "CHECKPOINT_ENV",
    "CheckpointConfig",
    "CheckpointError",
    "LevelCheckpointer",
    "LoadedCheckpoint",
    "latest_manifest",
    "resolve_checkpoint",
    "CollectiveAbortedError",
    "CollectiveMismatchError",
    "Communicator",
    "DEFAULT_BACKEND",
    "DEFAULT_MAX_FRAME",
    "DEFAULT_SHM_THRESHOLD",
    "DEFAULT_TIMEOUT",
    "FrameAssembler",
    "FrameCorruptedError",
    "FrameError",
    "FrameOversizeError",
    "FrameTruncatedError",
    "FusedBatch",
    "FusedFuture",
    "FusionError",
    "InvalidRankError",
    "MAX_FRAME_ENV",
    "LogicalOp",
    "NullPerf",
    "ReduceOp",
    "SHM_THRESHOLD_ENV",
    "ShmAttachCache",
    "ShmDescriptor",
    "ShmPool",
    "RemoteTraceback",
    "SelfCommunicator",
    "SpmdEngine",
    "SpmdError",
    "SpmdWorkerError",
    "ThreadCommunicator",
    "TraceCollector",
    "TraceConformanceError",
    "TraceEvent",
    "TraceRecorder",
    "WorkerCrashError",
    "available_backends",
    "check_traces",
    "decode_frame",
    "decode_payload",
    "encode_frame",
    "encode_payload",
    "format_trace_report",
    "get_engine",
    "last_trace_collector",
    "logical_ops",
    "make_op",
    "payload_nbytes",
    "reduction",
    "register_engine",
    "resolve_backend",
    "resolve_max_frame",
    "resolve_shm_threshold",
    "resolve_timeout",
    "run_spmd",
    "tag_level",
    "trace_enabled",
]

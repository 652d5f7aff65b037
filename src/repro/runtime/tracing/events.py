"""The collective-trace event schema and payload digesting.

One :class:`TraceEvent` is recorded per collective call per rank.  Fields
fall into three conformance classes the checker treats differently:

* **structural** — ``kind``, ``operator``, ``op`` (full metadata string,
  which also carries the root rank): must match across all ranks at the
  same step;
* **typed** — ``dtype`` / ``shape`` of the rank's contribution: must
  match across ranks for the elementwise reduce family
  (:data:`REDUCE_KINDS`);
* **content** — ``result_digest``: must match across ranks for
  collectives whose result is replicated on every rank
  (:data:`REPLICATED_KINDS`); ``payload_digest`` is per-rank context for
  diagnostics and is never cross-checked (each rank legitimately
  contributes different data).

``wall_seconds`` (host time inside the engine primitive) and ``clock``
(the rank's ledger position at entry: the index its collective row gets;
see :mod:`repro.perfmodel.tracker`) are observability fields and are
excluded from conformance checking and digests.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from ..payload import payload_nbytes

__all__ = [
    "LogicalOp",
    "REDUCE_KINDS",
    "REPLICATED_KINDS",
    "TRACE_ENV",
    "TraceEvent",
    "logical_ops",
    "parse_op",
    "payload_digest",
    "trace_event",
]

#: environment variable enabling tracing (and auto-conformance-checking)
TRACE_ENV = "REPRO_SPMD_TRACE"

#: collectives whose per-rank contributions are reduced elementwise and
#: therefore must agree on dtype and shape across ranks.  Fused variants
#: (see repro.runtime.fusion) pack many logical reductions of the same
#: kind into one buffer; the packed contributions still reduce
#: elementwise, so the same dtype/shape agreement applies.
REDUCE_KINDS = frozenset(
    {"reduce", "allreduce", "exscan",
     "fused_reduce", "fused_allreduce", "fused_exscan"}
)

#: collectives whose result is replicated identically on every rank —
#: digest divergence here means the "global" answer is not global.
#: A fused_allreduce's event-level result is the packed total, identical
#: on every rank, so it belongs here too; fused_reduce/fused_exscan
#: return per-rank data and are instead cross-checked section-by-section
#: via the fused_from manifest.
REPLICATED_KINDS = frozenset(
    {"allgather", "allgatherv", "allreduce", "fused_allreduce"}
)


def parse_op(op: str) -> tuple[str, str | None]:
    """Split a collective's metadata string into ``(kind, operator)``.

    ``"allreduce(op=SUM)"`` -> ``("allreduce", "SUM")``;
    ``"barrier"`` -> ``("barrier", None)``.
    """
    head, sep, rest = op.partition("(")
    if not sep:
        return op, None
    for param in rest.rstrip(")").split(","):
        key, eq, value = param.partition("=")
        if eq and key == "op":
            return head, value
    return head, None


def _feed(h, obj) -> None:
    """Stream a canonical, address-free encoding of *obj* into hasher *h*.

    Must be deterministic across processes (never uses ``hash()`` or
    ``id()``/``repr()`` of arbitrary objects), so digests computed inside
    different worker processes are comparable.
    """
    if obj is None:
        h.update(b"\x00N")
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"\x00A")
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(obj, np.generic):
        h.update(b"\x00G")
        h.update(str(obj.dtype).encode())
        h.update(obj.tobytes())
    elif isinstance(obj, bool):
        h.update(b"\x00B1" if obj else b"\x00B0")
    elif isinstance(obj, int):
        h.update(b"\x00I")
        h.update(str(obj).encode())
    elif isinstance(obj, float):
        h.update(b"\x00F")
        h.update(struct.pack("<d", obj))
    elif isinstance(obj, str):
        h.update(b"\x00S")
        h.update(obj.encode("utf-8", errors="replace"))
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        h.update(b"\x00Y")
        h.update(bytes(obj))
    elif isinstance(obj, (list, tuple)):
        h.update(b"\x00L")
        h.update(str(len(obj)).encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, (set, frozenset)):
        h.update(b"\x00E")
        # order-canonicalize via each element's own digest
        for d in sorted(payload_digest(item) for item in obj):
            h.update(d.encode())
    elif isinstance(obj, dict):
        h.update(b"\x00D")
        keyed = sorted(
            (payload_digest(k), k, v) for k, v in obj.items()
        )
        for _kd, k, v in keyed:
            _feed(h, k)
            _feed(h, v)
    else:
        # unknown object: type name plus its public attribute dict where
        # available; never repr() (embeds memory addresses, which differ
        # across worker processes for identical values)
        h.update(b"\x00O")
        h.update(type(obj).__qualname__.encode())
        attrs = getattr(obj, "__dict__", None)
        if attrs:
            _feed(h, attrs)


def payload_digest(obj) -> str:
    """Short stable content digest of a message payload (hex)."""
    h = hashlib.blake2b(digest_size=8)
    _feed(h, obj)
    return h.hexdigest()


@dataclass(frozen=True)
class LogicalOp:
    """One logical collective inside a fused rendezvous.

    The fusion layer (:mod:`repro.runtime.fusion`) packs several logical
    collectives into one engine exchange; the trace event for that
    exchange carries a tuple of these records so checkers and
    differential suites can still reason per logical op.  The ``op``
    string is exactly what the *unfused* schedule would have recorded
    (``"exscan(op=sum)"``, ``"reduce(op=sum,root=2)"``, …), and the
    digests cover the original, unpacked payload/result of this rank.
    """

    op: str
    dtype: str
    shape: tuple
    payload_digest: str
    payload_nbytes: int
    result_digest: str
    result_nbytes: int

    def describe(self) -> str:
        """One-line human-readable rendering (manifest entry)."""
        return (
            f"{self.op:<28s} {self.dtype}{list(self.shape)}"
            f" in={self.payload_nbytes}B out={self.result_nbytes}B"
            f" result={self.result_digest}"
        )


@dataclass(frozen=True)
class TraceEvent:
    """One collective call as seen by one rank."""

    #: 0-based position in this rank's collective sequence
    seq: int
    #: op kind ("allreduce", "alltoallv", "barrier", …)
    kind: str
    #: full metadata string as verified by the engine (includes root etc.)
    op: str
    #: reduce operator name (reductions only)
    operator: str | None
    #: dtype of this rank's contribution (numpy payloads only)
    dtype: str | None
    #: shape of this rank's contribution (numpy payloads only)
    shape: tuple | None
    #: content digest of this rank's contribution
    payload_digest: str
    #: bytes this rank contributed
    payload_nbytes: int
    #: content digest of this rank's result
    result_digest: str
    #: bytes this rank received back
    result_nbytes: int
    #: host seconds spent inside the engine primitive (incl. waiting)
    wall_seconds: float
    #: the tracker's clock at call entry — a ledger's row index (0.0
    #: when unpriced; the harness's wall-clock tracker reads seconds)
    clock: float
    #: the communicator's ``phase`` at the call (set by ``timed_phase``)
    phase: str | None
    #: the communicator's ``level`` at the call (set by the induction loop)
    level: int | None
    #: for fused collectives only: the manifest of logical collectives
    #: this rendezvous replaced, in section order (None for plain ops)
    fused_from: tuple | None = None

    def describe(self) -> str:
        """One-line human-readable rendering."""
        where = ""
        if self.phase is not None:
            where = f" [{self.phase}" + (
                f"/L{self.level}]" if self.level is not None else "]"
            )
        meta = ""
        if self.shape is not None:
            meta = f" {self.dtype}{list(self.shape)}"
        out = (
            f"#{self.seq:<4d} {self.op:<28s}{meta}"
            f" in={self.payload_nbytes}B out={self.result_nbytes}B"
            f" result={self.result_digest}{where}"
        )
        if self.fused_from:
            out += "".join(
                f"\n      └ {entry.describe()}" for entry in self.fused_from
            )
        return out


def _np_meta(payload) -> tuple[str | None, tuple | None]:
    """(dtype, shape) of a numpy contribution; (None, None) otherwise."""
    if isinstance(payload, np.ndarray):
        return str(payload.dtype), tuple(payload.shape)
    if isinstance(payload, np.generic):
        return str(payload.dtype), ()
    return None, None


def trace_event(seq: int, op: str, payload, result, wall_seconds: float,
                clock: float, phase: str | None, level: int | None,
                fused_from: tuple | None = None) -> TraceEvent:
    """The event of one completed collective: ``op`` with this rank's
    ``payload`` and ``result``, digested and sized."""
    kind, operator = parse_op(op)
    dtype, shape = _np_meta(payload)
    return TraceEvent(
        seq=seq,
        kind=kind,
        op=op,
        operator=operator,
        dtype=dtype,
        shape=shape,
        payload_digest=payload_digest(payload),
        payload_nbytes=payload_nbytes(payload),
        result_digest=payload_digest(result),
        result_nbytes=payload_nbytes(result),
        wall_seconds=wall_seconds,
        clock=clock,
        phase=phase,
        level=level,
        fused_from=fused_from,
    )


def logical_ops(events) -> list[LogicalOp]:
    """Expand a rank's event sequence into logical collectives.

    Fused events contribute one :class:`LogicalOp` per manifest section;
    plain events contribute themselves, converted.  The result is what a
    run's collective schedule *means*, independent of how the fusion
    layer packed it — fused and unfused runs of the same algorithm yield
    the same multiset of logical ops (the differential suite asserts
    exactly this).
    """
    out: list[LogicalOp] = []
    for ev in events:
        if ev.fused_from:
            out.extend(ev.fused_from)
        else:
            out.append(LogicalOp(
                op=ev.op,
                dtype=ev.dtype if ev.dtype is not None else "",
                shape=ev.shape if ev.shape is not None else (),
                payload_digest=ev.payload_digest,
                payload_nbytes=ev.payload_nbytes,
                result_digest=ev.result_digest,
                result_nbytes=ev.result_nbytes,
            ))
    return out

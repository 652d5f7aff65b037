"""Per-rank ledgers: what each rank did, in its own order, machine-free.

Every rank owns a :class:`RankTracker` (exposed to algorithm code as
``comm.perf``) that appends one row per event:

* compute — ``(kind, count)`` units of vectorized-kernel work;
* memory — a persistent structure registered, resized or released, and
  short-lived (transient) buffers, mirroring how the paper accounts
  per-processor memory (Figure 3(b) attributes the large-p deviation to
  collective buffers growing with p);
* a level mark, and a phase span covering the rows before it;
* every completed world collective — its op name and this rank's own
  contribution size (per destination block for the all-to-alls);
* every point-to-point send and receive — the peer and the bytes.

Nothing here knows a machine: :func:`repro.perfmodel.price` replays all
ranks' ledgers after the run, in lock-step, and turns them into
simulated seconds.  The tracker's :attr:`~RankTracker.clock` is
therefore a *position* — the row count — which is all
:func:`~repro.core.phases.timed_phase` needs to say which rows a phase
covered.

One thing is measured rather than replayed, and kept as a counter:
the transport traffic an engine really moved (``add_transport``).  The
collective trace (:mod:`repro.runtime.tracing`) feeds nothing here, so a
traced run books the same ledger as an untraced one; per-phase bytes
are read from the trace events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..runtime.payload import payload_nbytes

__all__ = ["RankTracker"]

#: row kinds (the first field of every ledger row)
COMPUTE = "compute"         # (COMPUTE, kind, count)
REGISTER = "register"       # (REGISTER, tag, nbytes)
RELEASE = "release"         # (RELEASE, tag)
TRANSIENT = "transient"     # (TRANSIENT, nbytes)
LEVEL = "level"             # (LEVEL, label)
PHASE = "phase"             # (PHASE, name, span): the span rows before it
COLLECTIVE = "collective"   # (COLLECTIVE, op, nbytes or per-destination)
SEND = "send"               # (SEND, dest, nbytes)
RECV = "recv"               # (RECV, source, nbytes)


@dataclass
class RankTracker:
    """One rank's ledger (see the module docstring)."""

    rows: list = field(default_factory=list)

    # actual transport accounting (measured, not simulated): bytes this
    # rank really serialized onto an engine transport.  Zero on backends
    # with no physical transport (thread ranks share a heap).
    transport_pickled_bytes: int = 0

    @property
    def clock(self) -> int:
        """The ledger position: rows recorded so far."""
        return len(self.rows)

    # -- computation and memory -------------------------------------------

    def add_compute(self, kind: str, count: float) -> None:
        """Charge ``count`` units of work of the given kind to this rank."""
        if count > 0:
            self.rows.append((COMPUTE, kind, count))

    def register_bytes(self, tag: str, nbytes: int) -> None:
        """Register (or resize) a persistent per-rank structure."""
        self.rows.append((REGISTER, tag, int(nbytes)))

    def release_bytes(self, tag: str) -> None:
        """Drop a persistent structure from the live set."""
        self.rows.append((RELEASE, tag))

    def transient_bytes(self, nbytes: int) -> None:
        """Record a short-lived allocation (communication buffers etc.);
        only its peak against the live persistent set matters."""
        self.rows.append((TRANSIENT, int(nbytes)))

    # -- phases and levels --------------------------------------------------

    def mark_level(self, label: object) -> None:
        """Mark a level boundary (priced as the clock at this row)."""
        self.rows.append((LEVEL, label))

    def add_phase_time(self, name: str, span: int) -> None:
        """Attribute the last ``span`` rows to an algorithm phase
        (Figure 2's Presort / FindSplitI / FindSplitII / PerformSplitI /
        PerformSplitII buckets); ``span`` is a clock difference."""
        if span > 0:
            self.rows.append((PHASE, name, span))

    # -- communication ------------------------------------------------------

    def add_collective(self, spec: Any, payload: Any) -> None:
        """One world collective completed with this rank's ``payload``."""
        if spec.transposes:
            nbytes = tuple(payload_nbytes(block) for block in payload)
        else:
            nbytes = payload_nbytes(payload)
        self.rows.append((COLLECTIVE, spec.name, nbytes))

    def add_send(self, dest: int, obj: Any) -> None:
        """One point-to-point message sent to ``dest``."""
        self.rows.append((SEND, dest, payload_nbytes(obj)))

    def add_recv(self, source: int, obj: Any) -> None:
        """One point-to-point message received from ``source``."""
        self.rows.append((RECV, source, payload_nbytes(obj)))

    # -- measured counters --------------------------------------------------

    def add_transport(self, pickled: int, shared: int) -> None:
        """Record *actual* transport traffic (engine callback): bytes
        serialized onto a channel.  ``shared`` is always 0 (no engine
        moves bytes any other way) and is not kept."""
        self.transport_pickled_bytes += int(pickled)

    def merge_remote(self, remote: "RankTracker") -> None:
        """Take over the ledger a rank process shipped home: there is one
        copy of it, so this replaces, nothing is merged."""
        vars(self).update(vars(remote))

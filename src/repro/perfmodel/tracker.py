"""Per-rank performance trackers and the lock-step simulated clock.

Every rank owns a :class:`RankTracker` (exposed to algorithm code as
``comm.perf``) that accumulates

* a **simulated clock** — computation time priced per vectorized-kernel
  unit of work, communication time priced by the machine's cost model;
* communication counters (bytes sent/received, collective counts by
  category);
* a **memory watermark** — registered persistent structures (attribute
  lists, node-table slice) plus the largest transient communication buffer
  observed, mirroring how the paper accounts per-processor memory
  (Figure 3(b) explicitly attributes the large-p deviation to collective
  buffers growing with p).

The :class:`PerfRun` object doubles as the engine's
:class:`~repro.runtime.engines.base.CommObserver`: every collective is a
synchronization point, so it advances all ranks' clocks to
``max(clocks) + collective_cost`` — a bulk-synchronous time simulation that
naturally charges load imbalance as waiting time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .costmodel import (
    collective_category,
    collective_cost,
    fused_width,
    ptp_cost,
)
from .machine import CRAY_T3D, MachineSpec

__all__ = ["RankTracker", "PerfRun"]


@dataclass
class RankTracker:
    """Accumulates simulated time, traffic and memory for one rank."""

    rank: int
    machine: MachineSpec

    clock: float = 0.0
    comp_seconds: float = 0.0
    comm_seconds: float = 0.0

    bytes_sent: int = 0
    bytes_recv: int = 0
    n_collectives: int = 0
    #: logical collectives behind the physical ones: a fused rendezvous
    #: (repro.runtime.fusion) counts once in n_collectives but once per
    #: packed section here; equal to n_collectives on unfused runs
    n_logical_collectives: int = 0
    n_ptp: int = 0

    compute_units: Counter = field(default_factory=Counter)
    collective_counts: Counter = field(default_factory=Counter)
    collective_bytes: Counter = field(default_factory=Counter)
    phase_seconds: Counter = field(default_factory=Counter)
    phase_comm_bytes: Counter = field(default_factory=Counter)

    # actual transport accounting (measured, not simulated): bytes this
    # rank really serialized onto an engine transport vs. bytes that moved
    # through shared-memory segments instead of being copied.  Zero on
    # backends with no physical transport (thread ranks share a heap).
    transport_pickled_bytes: int = 0
    transport_shared_bytes: int = 0
    phase_pickled_bytes: Counter = field(default_factory=Counter)
    phase_shared_bytes: Counter = field(default_factory=Counter)

    persistent_bytes: dict = field(default_factory=dict)
    _persistent_total: int = 0
    memory_watermark: int = 0

    level_marks: list = field(default_factory=list)

    # -- computation ------------------------------------------------------

    def add_compute(self, kind: str, count: float) -> None:
        """Charge ``count`` units of work of the given kind to this rank."""
        if count <= 0:
            return
        dt = count * self.machine.cost_of(kind)
        self.clock += dt
        self.comp_seconds += dt
        self.compute_units[kind] += count

    def add_phase_time(self, name: str, seconds: float) -> None:
        """Attribute simulated time to an algorithm phase (Figure 2's
        Presort / FindSplitI / FindSplitII / PerformSplitI /
        PerformSplitII buckets)."""
        if seconds > 0:
            self.phase_seconds[name] += seconds

    def add_phase_comm(self, name: str, nbytes: int) -> None:
        """Attribute communicated bytes to an algorithm phase (fed by the
        collective-trace recorder when a run is traced)."""
        if nbytes > 0:
            self.phase_comm_bytes[name] += int(nbytes)

    def add_transport(self, pickled: int, shared: int,
                      phase: str | None = None) -> None:
        """Record *actual* transport traffic (engine callback): bytes
        serialized onto a pipe vs. bytes moved via shared memory.  This is
        measurement, not simulation — it never touches the clock."""
        if pickled > 0:
            self.transport_pickled_bytes += int(pickled)
            if phase:
                self.phase_pickled_bytes[phase] += int(pickled)
        if shared > 0:
            self.transport_shared_bytes += int(shared)
            if phase:
                self.phase_shared_bytes[phase] += int(shared)

    # -- memory -----------------------------------------------------------

    def register_bytes(self, tag: str, nbytes: int) -> None:
        """Register (or resize) a persistent per-rank structure."""
        old = self.persistent_bytes.get(tag, 0)
        self.persistent_bytes[tag] = int(nbytes)
        self._persistent_total += int(nbytes) - old
        if self._persistent_total > self.memory_watermark:
            self.memory_watermark = self._persistent_total

    def release_bytes(self, tag: str) -> None:
        """Drop a persistent structure from the live set."""
        old = self.persistent_bytes.pop(tag, 0)
        self._persistent_total -= old

    def transient_bytes(self, nbytes: int) -> None:
        """Record a short-lived allocation (communication buffers etc.);
        only its peak against the live persistent set matters."""
        peak = self._persistent_total + int(nbytes)
        if peak > self.memory_watermark:
            self.memory_watermark = peak

    @property
    def persistent_total(self) -> int:
        """Currently registered persistent bytes."""
        return self._persistent_total

    # -- phases -----------------------------------------------------------

    def mark_level(self, label: object) -> None:
        """Snapshot the clock at a phase/level boundary."""
        self.level_marks.append((label, self.clock))

    # -- cross-process synchronisation ------------------------------------
    #
    # The process engine keeps two live copies of each tracker: one inside
    # the rank's worker process (authoritative for computation and memory,
    # because ``add_compute``/``register_bytes`` run there) and one beside
    # the router/observer in the parent (authoritative for communication,
    # because the observer prices collectives there).  The engine calls the
    # hooks below — duck-typed, so any ``perf`` object lacking them simply
    # stays process-local:
    #
    # * ``sync_compute_state`` / ``apply_compute_state`` piggyback the
    #   worker's compute-side state on every engine request, so the
    #   observer prices collectives against up-to-date clocks;
    # * ``comm_state`` / ``apply_comm_state`` carry the observer's pricing
    #   back on every reply, so the worker's clock includes comm costs;
    # * ``merge_remote`` folds the worker's final tracker into the parent
    #   copy when the rank exits.
    #
    # The simulated clock is advanced on both sides and merged by ``max``
    # (each side only ever adds time the other has not yet seen), while the
    # single-authority fields are overwritten with the authority's value.

    def sync_compute_state(self) -> tuple:
        """Compute-side state to piggyback on an engine request."""
        return (self.clock, self.comp_seconds, self._persistent_total,
                self.memory_watermark)

    def apply_compute_state(self, state: tuple) -> None:
        """Fold a worker's compute-side state into this (parent) copy."""
        clock, comp_seconds, persistent_total, watermark = state
        self.clock = max(self.clock, clock)
        self.comp_seconds = comp_seconds
        self._persistent_total = persistent_total
        self.memory_watermark = max(self.memory_watermark, watermark)

    def comm_state(self) -> tuple:
        """Comm-side state to carry back on an engine reply."""
        return (self.clock, self.comm_seconds, self.memory_watermark)

    def apply_comm_state(self, state: tuple) -> None:
        """Fold the parent copy's comm pricing into this (worker) copy."""
        clock, comm_seconds, watermark = state
        self.clock = max(self.clock, clock)
        self.comm_seconds = comm_seconds
        self.memory_watermark = max(self.memory_watermark, watermark)

    def merge_remote(self, remote: "RankTracker") -> None:
        """Fold a rank's final worker-side tracker into this parent copy
        (traffic counters stay local — the observer priced them here)."""
        self.clock = max(self.clock, remote.clock)
        self.comm_seconds = max(self.comm_seconds, remote.comm_seconds)
        self.comp_seconds = remote.comp_seconds
        self.compute_units = remote.compute_units
        self.phase_seconds = remote.phase_seconds
        self.phase_comm_bytes = remote.phase_comm_bytes
        # transport is measured inside the rank process (it is the one
        # doing the pickling), so the worker copy is authoritative
        self.transport_pickled_bytes = remote.transport_pickled_bytes
        self.transport_shared_bytes = remote.transport_shared_bytes
        self.phase_pickled_bytes = remote.phase_pickled_bytes
        self.phase_shared_bytes = remote.phase_shared_bytes
        self.persistent_bytes = remote.persistent_bytes
        self._persistent_total = remote._persistent_total
        self.level_marks = remote.level_marks
        self.memory_watermark = max(self.memory_watermark,
                                    remote.memory_watermark)


class PerfRun:
    """One priced SPMD run: builds per-rank trackers and acts as the
    engine observer that advances clocks in lock-step.

    Typical use::

        perf = PerfRun(size, machine=CRAY_T3D)
        run_spmd(size, worker, args,
                 observer=perf, rank_perf=perf.trackers)
        stats = perf.stats()
    """

    def __init__(self, size: int, machine: MachineSpec | None = None):
        self.size = size
        self.machine = machine if machine is not None else CRAY_T3D
        self.trackers = [RankTracker(r, self.machine) for r in range(size)]

    # -- CommObserver interface -------------------------------------------

    def on_collective(self, op: str, sent: list[int], recv: list[int],
                      size: int) -> None:
        """Engine callback: price one collective step, advance all clocks
        in lock-step, and account traffic + transient buffers."""
        cost = collective_cost(self.machine, op, sent, recv, size)
        new_clock = max(t.clock for t in self.trackers) + cost
        category = collective_category(op)
        width = fused_width(op)
        for t, s, r in zip(self.trackers, sent, recv):
            t.comm_seconds += new_clock - t.clock
            t.clock = new_clock
            t.bytes_sent += s
            t.bytes_recv += r
            t.n_collectives += 1
            t.n_logical_collectives += width
            t.collective_counts[category] += 1
            t.collective_bytes[category] += s + r
            t.transient_bytes(s + r)

    def on_ptp(self, source: int, dest: int, nbytes: int) -> None:
        """Engine callback: price one point-to-point delivery."""
        # priced on the receiver only (sends are buffered; see costmodel)
        cost = ptp_cost(self.machine, nbytes)
        t_dst = self.trackers[dest]
        t_dst.clock += cost
        t_dst.comm_seconds += cost
        t_dst.bytes_recv += nbytes
        t_dst.n_ptp += 1
        t_dst.transient_bytes(nbytes)
        t_src = self.trackers[source]
        t_src.bytes_sent += nbytes
        t_src.n_ptp += 1

    # -- reporting ---------------------------------------------------------

    def stats(self):
        """Aggregate the run into a :class:`~repro.perfmodel.report.SimulatedRunStats`."""
        from .report import SimulatedRunStats

        return SimulatedRunStats.from_trackers(self.machine, self.trackers)

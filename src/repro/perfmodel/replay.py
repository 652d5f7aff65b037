"""Pricing by replay: the lock-step simulated clock, run after the fit.

Ranks only *record* (:class:`~repro.perfmodel.tracker.RankTracker`);
:func:`price` walks every rank's ledger on one machine and returns the
run's :class:`~repro.perfmodel.report.SimulatedRunStats`.  Compute rows
are priced per unit of work, a point-to-point message on its receiver
(sends are buffered; see :mod:`~repro.perfmodel.costmodel`), and every
collective is a synchronization point: the ledgers' collective rows are
aligned by sequence, and at each one every rank's clock becomes
``max(clocks) + collective_cost`` — a bulk-synchronous time simulation
that charges load imbalance as waiting time.

A collective's per-rank ``(sent, recv)`` bytes are computed here, from
the contribution sizes every rank recorded: the message sizes the run
really produced, not analytic estimates.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .costmodel import (
    collective_category,
    collective_cost,
    fused_width,
    ptp_cost,
)
from .machine import MachineSpec
from .report import SimulatedRunStats
from .tracker import (
    COLLECTIVE,
    COMPUTE,
    LEVEL,
    PHASE,
    RECV,
    REGISTER,
    RELEASE,
    SEND,
    TRANSIENT,
    RankTracker,
)

__all__ = ["PricedRank", "price", "replay"]


@dataclass
class PricedRank:
    """One rank's ledger, priced: simulated time, traffic and memory."""

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

    persistent: dict = field(default_factory=dict)
    persistent_total: int = 0
    memory_watermark: int = 0
    level_marks: list = field(default_factory=list)

    #: the clock before each row so far (``clocks[i]``: after rows < i)
    clocks: list = field(default_factory=lambda: [0.0])

    def _transient(self, nbytes: int) -> None:
        self.memory_watermark = max(self.memory_watermark,
                                    self.persistent_total + nbytes)

    def _local(self, rows: list, pos: int, machine: MachineSpec) -> int:
        """Price rows from ``pos`` up to the next collective row; return
        that row's index (``len(rows)`` at the end of the ledger)."""
        clocks = self.clocks
        for pos in range(pos, len(rows)):
            row = rows[pos]
            what = row[0]
            if what == COLLECTIVE:
                return pos
            if what == COMPUTE:
                _, kind, count = row
                dt = count * machine.cost_of(kind)
                self.clock += dt
                self.comp_seconds += dt
                self.compute_units[kind] += count
            elif what == TRANSIENT:
                self._transient(row[1])
            elif what == REGISTER:
                _, tag, nbytes = row
                self.persistent_total += nbytes - self.persistent.get(tag, 0)
                self.persistent[tag] = nbytes
                self._transient(0)
            elif what == RELEASE:
                self.persistent_total -= self.persistent.pop(row[1], 0)
            elif what == PHASE:
                _, name, span = row
                seconds = self.clock - clocks[pos - span]
                if seconds > 0:
                    self.phase_seconds[name] += seconds
            elif what == LEVEL:
                self.level_marks.append((row[1], self.clock))
            elif what == RECV:
                nbytes = row[2]
                cost = ptp_cost(machine, nbytes)
                self.clock += cost
                self.comm_seconds += cost
                self.bytes_recv += nbytes
                self.n_ptp += 1
                self._transient(nbytes)
            elif what == SEND:
                self.bytes_sent += row[2]
                self.n_ptp += 1
            clocks.append(self.clock)
        return len(rows)


def replay(ledgers: Sequence[RankTracker],
           machine: MachineSpec) -> list[PricedRank]:
    """Price every rank's ledger on ``machine``, in lock-step.

    Raises :class:`ValueError` when the ledgers disagree on a
    collective's op, or on how many collectives the run had — they were
    not recorded by one SPMD job.
    """
    if not ledgers:
        raise ValueError("no ledgers to price")
    size = len(ledgers)
    ranks = [PricedRank() for _ in ledgers]
    pos = [0] * size
    rows = [ledger.rows for ledger in ledgers]
    for step in itertools.count():
        pos = [rank._local(r, p, machine)
               for rank, r, p in zip(ranks, rows, pos)]
        ended = [p == len(r) for r, p in zip(rows, pos)]
        if all(ended):
            return ranks
        if any(ended):
            raise ValueError(
                f"ledgers disagree on the count at collective step {step}: "
                f"ranks {[g for g, e in enumerate(ended) if e]} have no "
                "more collectives")
        ops = [r[p][1] for r, p in zip(rows, pos)]
        if len(set(ops)) > 1:
            raise ValueError(
                f"ledgers disagree on the op at collective step {step}: "
                f"{ops}")
        op = ops[0]
        sent, recv = _bytes(op, [r[p][2] for r, p in zip(rows, pos)])
        cost = collective_cost(machine, op, sent, recv, size)
        new_clock = max(rank.clock for rank in ranks) + cost
        category = collective_category(op)
        width = fused_width(op)
        for rank, s, r in zip(ranks, sent, recv):
            rank.comm_seconds += new_clock - rank.clock
            rank.clock = new_clock
            rank.bytes_sent += s
            rank.bytes_recv += r
            rank.n_collectives += 1
            rank.n_logical_collectives += width
            rank.collective_counts[category] += 1
            rank.collective_bytes[category] += s + r
            rank._transient(s + r)
            rank.clocks.append(new_clock)
        pos = [p + 1 for p in pos]


def price(ledgers: Sequence[RankTracker],
          machine: MachineSpec) -> SimulatedRunStats:
    """The machine-priced summary of one run: :func:`replay` every
    rank's ledger, then fold the ranks (times by max, traffic by sum)."""
    ranks = replay(ledgers, machine)
    phases: dict = {}
    for t in ranks:
        for k, v in t.phase_seconds.items():
            phases[k] = max(phases.get(k, 0.0), v)
    mem = tuple(t.memory_watermark for t in ranks)
    return SimulatedRunStats(
        machine_name=machine.name,
        size=len(ranks),
        parallel_time=max(t.clock for t in ranks),
        comp_time_max=max(t.comp_seconds for t in ranks),
        comp_time_mean=sum(t.comp_seconds for t in ranks) / len(ranks),
        comm_time_max=max(t.comm_seconds for t in ranks),
        total_bytes=sum(t.bytes_sent for t in ranks),
        bytes_per_rank_max=max(t.bytes_sent + t.bytes_recv for t in ranks),
        memory_per_rank=mem,
        memory_per_rank_max=max(mem),
        collective_counts=_sum_counters(t.collective_counts for t in ranks),
        logical_collectives=sum(t.n_logical_collectives for t in ranks),
        collective_bytes=_sum_counters(t.collective_bytes for t in ranks),
        compute_units=_sum_counters(t.compute_units for t in ranks),
        phase_seconds=phases,
        level_marks=tuple(ranks[0].level_marks),
        transport_pickled_bytes=sum(
            t.transport_pickled_bytes for t in ledgers),
    )


def _sum_counters(counters) -> dict:
    out: dict = {}
    for counter in counters:
        for k, v in counter.items():
            out[k] = out.get(k, 0) + v
    return out


def _bytes(op: str, sizes: list) -> tuple[list[int], list[int]]:
    """Per-rank ``(sent, recv)`` of one collective step, from the size
    every rank booked."""
    kind = op.split("(", 1)[0].removeprefix("fused_")    # same fold, packed
    p = len(sizes)
    if kind in ("allgather", "allgatherv"):
        total = sum(sizes)
        return [s * (p - 1) for s in sizes], [total - s for s in sizes]
    if kind in ("reduce", "allreduce", "exscan"):
        # tree reduction: every rank sends/receives O(log p) messages of
        # its (packed) payload size; one up-edge and one down-edge per
        # rank are accounted, and the cost model prices the log-p latency
        # factor — once per fused group
        return list(sizes), list(sizes)
    if kind in ("alltoall", "alltoallv"):
        # sizes[i][j]: bytes rank i addressed to rank j; a rank's block
        # to itself does not travel and is not counted
        sent = [sum(row) - row[i] for i, row in enumerate(sizes)]
        recv = [sum(row[j] for row in sizes) - sizes[j][j] for j in range(p)]
        return sent, recv
    return [0] * p, [0] * p             # barrier: no payload moves

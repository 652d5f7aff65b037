"""Collective communication cost functions (the paper's linear model).

Maps each runtime collective to a modeled completion time on a
:class:`~repro.perfmodel.machine.MachineSpec`, following the cost shapes of
Kumar/Grama/Gupta/Karypis (*Introduction to Parallel Computing*) that the
paper cites:

* tree/ring collectives (reduce, allreduce, exscan, allgather(v)):
  ``coll_latency · ⌈log2 p⌉ + max_rank(sent+recv) / ptp_bw``;
* all-to-all personalized (the paradigm's workhorse):
  ``a2a_latency · p + max_rank(sent+recv) / a2a_bw`` — per-processor
  latency exactly as the paper benchmarks it;
* barrier: pure latency term;
* point-to-point: ``ptp_latency + bytes / ptp_bw``.

The per-rank byte counts come from the ranks' ledgers
(:func:`~repro.perfmodel.replay.replay`), i.e. they are the *actual*
message sizes of the run, not analytic estimates.
"""

from __future__ import annotations

import math
from typing import Sequence

from .machine import MachineSpec

__all__ = ["collective_cost", "ptp_cost", "collective_category",
           "fused_width"]

#: op-tag prefixes that use the all-to-all personalized model
_A2A_PREFIXES = ("alltoall",)
#: op-tag prefixes that are pure synchronization
_SYNC_PREFIXES = ("barrier",)


def collective_category(op: str) -> str:
    """Classify a runtime op tag (e.g. ``"reduce(op=sum,root=0)"``) for
    costing."""
    name = op.split("(", 1)[0]
    if name.startswith(_A2A_PREFIXES):
        return "a2a"
    if name.startswith(_SYNC_PREFIXES):
        return "sync"
    return "tree"


def fused_width(op: str) -> int:
    """Number of *logical* collectives a runtime op tag stands for.

    Fused collectives (:mod:`repro.runtime.fusion`) carry their section
    count as ``n=`` in the tag — ``"fused_exscan(op=sum,n=6)"`` replaced
    six logical exscans with one rendezvous; every other op stands for
    itself.  The cost model prices the *tag* (latency once, bandwidth on
    the packed bytes), which is exactly the fusion win; this helper lets
    counters report how many logical collectives that one price covered.
    """
    name, sep, rest = op.partition("(")
    if not (sep and name.startswith("fused_")):
        return 1
    for param in rest.rstrip(")").split(","):
        key, eq, value = param.partition("=")
        if eq and key == "n" and value.isdigit():
            return max(1, int(value))
    return 1


def collective_cost(
    machine: MachineSpec,
    op: str,
    sent: Sequence[int],
    recv: Sequence[int],
    size: int,
) -> float:
    """Modeled wall time of one collective step over ``size`` ranks."""
    if size <= 1:
        return 0.0
    stages = math.ceil(math.log2(size))
    category = collective_category(op)
    if category == "sync":
        return machine.coll_latency * stages
    volume = max(s + r for s, r in zip(sent, recv))
    if category == "a2a":
        return machine.a2a_latency * size + volume / machine.a2a_bandwidth
    return machine.coll_latency * stages + volume / machine.ptp_bandwidth


def ptp_cost(machine: MachineSpec, nbytes: int) -> float:
    """Modeled time of one point-to-point message."""
    return machine.ptp_latency + nbytes / machine.ptp_bandwidth

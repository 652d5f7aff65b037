"""Analytical performance model (the repo's "Cray T3D" substrate).

Prices the *measured* communication and computation of a simulated SPMD
run with the paper's linear cost model, producing modeled parallel
runtimes and per-processor memory watermarks — the quantities behind
Figure 3(a) and Figure 3(b).  Ranks record a ledger each
(:class:`RankTracker`); :func:`price` replays them on a machine after
the run::

    ledgers = [RankTracker() for _ in range(size)]
    run_spmd(size, worker, args, rank_perf=ledgers)
    stats = price(ledgers, CRAY_T3D)

See DESIGN.md §2 for why this substitution preserves the paper's
evaluation shape.
"""

from .costmodel import collective_category, collective_cost, ptp_cost
from .machine import CRAY_T3D, ZERO_LATENCY, MachineSpec, scale_machine
from .replay import PricedRank, price, replay
from .report import SimulatedRunStats, format_bytes, format_seconds
from .tracker import RankTracker

__all__ = [
    "CRAY_T3D",
    "MachineSpec",
    "PricedRank",
    "RankTracker",
    "SimulatedRunStats",
    "ZERO_LATENCY",
    "collective_category",
    "collective_cost",
    "format_bytes",
    "format_seconds",
    "price",
    "ptp_cost",
    "replay",
    "scale_machine",
]

"""Aggregated statistics of a priced simulated run
(:func:`repro.perfmodel.price` builds them from the ranks' ledgers).

This is the measurement record behind every figure reproduction:
Figure 3(a) reads :attr:`SimulatedRunStats.parallel_time` across (N, p)
grids; Figure 3(b) reads :attr:`SimulatedRunStats.memory_per_rank_max`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SimulatedRunStats", "format_bytes", "format_seconds"]


def format_bytes(n: float) -> str:
    """Human-readable byte count (binary units, as the paper's MB plots)."""
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.2f} {unit}" if unit != "B" else f"{n:.0f} B"
        n /= 1024
    raise AssertionError("unreachable")


def format_seconds(s: float) -> str:
    """Human-readable simulated duration."""
    if s < 1e-3:
        return f"{s * 1e6:.1f} µs"
    if s < 1.0:
        return f"{s * 1e3:.2f} ms"
    return f"{s:.2f} s"


@dataclass(frozen=True)
class SimulatedRunStats:
    """Machine-priced summary of one SPMD run."""

    machine_name: str
    size: int
    #: modeled wall time: max simulated clock over ranks
    parallel_time: float
    #: max over ranks of pure computation seconds
    comp_time_max: float
    #: mean over ranks of pure computation seconds
    comp_time_mean: float
    #: max over ranks of communication (incl. waiting) seconds
    comm_time_max: float
    #: total bytes moved (sum over ranks of bytes sent)
    total_bytes: int
    #: max over ranks of bytes sent+received (the per-processor comm volume
    #: §3's scalability argument bounds)
    bytes_per_rank_max: int
    #: per-rank memory watermarks (persistent + peak transient buffers)
    memory_per_rank: tuple[int, ...]
    #: max over ranks — the Figure 3(b) quantity
    memory_per_rank_max: int
    #: collective step counts by category (tree / a2a / sync)
    collective_counts: dict = field(default_factory=dict)
    #: logical collectives behind those steps (summed over ranks): a fused
    #: rendezvous counts once per packed section here, so the gap to
    #: sum(collective_counts.values()) is exactly what fusion saved
    logical_collectives: int = 0
    #: bytes by category
    collective_bytes: dict = field(default_factory=dict)
    #: compute units by kind, summed over ranks
    compute_units: dict = field(default_factory=dict)
    #: simulated seconds per algorithm phase (max over ranks) — Figure 2's
    #: Presort / FindSplitI / FindSplitII / PerformSplitI / PerformSplitII
    phase_seconds: dict = field(default_factory=dict)
    #: per-level (label, end_clock) marks from rank 0
    level_marks: tuple = ()
    #: *measured* bytes actually serialized onto an engine transport
    #: (sum over ranks; nonzero only on the process backend)
    transport_pickled_bytes: int = 0
    #: *measured* bytes that moved through shared-memory segments instead
    #: of being serialized (sum over ranks; nonzero only when the process
    #: backend's data plane is enabled)
    transport_shared_bytes: int = 0

    def level_durations(self) -> list[tuple[object, float]]:
        """Per-level durations derived from rank 0's level marks."""
        out = []
        prev = 0.0
        for label, clock in self.level_marks:
            out.append((label, clock - prev))
            prev = clock
        return out

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"machine={self.machine_name} p={self.size}",
            f"  parallel time : {format_seconds(self.parallel_time)}"
            f" (comp max {format_seconds(self.comp_time_max)},"
            f" comm max {format_seconds(self.comm_time_max)})",
            f"  traffic       : total {format_bytes(self.total_bytes)},"
            f" per-rank max {format_bytes(self.bytes_per_rank_max)}",
            f"  memory/rank   : max {format_bytes(self.memory_per_rank_max)}",
            f"  collectives   : {dict(self.collective_counts)}"
            + (
                f" (fused from {self.logical_collectives} logical)"
                if self.logical_collectives
                > sum(self.collective_counts.values()) else ""
            ),
        ]
        # the measured transport counters (transport_pickled_bytes /
        # transport_shared_bytes) are deliberately NOT in this block: it
        # reports the simulated machine, which is engine-independent and
        # byte-identical across backends; measured transport lives in the
        # stats fields and the benchmark JSON
        return "\n".join(lines)

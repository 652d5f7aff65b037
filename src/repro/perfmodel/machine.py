"""Machine specifications for the analytical performance model.

The paper benchmarks Cray T3D's MPI with a **linear communication model**:
a latency plus a byte-volume/bandwidth term, with separate parameters for
point-to-point messages and for the all-to-all personalized collective
(§5: measured latencies and bandwidths; §3 follows Kumar et al.,
*Introduction to Parallel Computing*, for collective cost shapes).  We keep
exactly that structure and price the *actually measured* traffic of each
simulated run with it.

The published absolute numbers are partially unreadable in the available
scan; ``CRAY_T3D`` uses values reconstructed from contemporaneous T3D MPI
benchmarks and is clearly labelled as such in EXPERIMENTS.md.  Since every
experiment reports *relative* behaviour (speedups, halving of memory), the
shapes are insensitive to the exact constants, which tests verify by
sweeping them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

__all__ = ["MachineSpec", "CRAY_T3D", "ZERO_LATENCY", "scale_machine"]


@dataclass(frozen=True)
class MachineSpec:
    """Parameters of the modeled parallel machine.

    All times are seconds, bandwidths bytes/second.

    Attributes
    ----------
    ptp_latency, ptp_bandwidth:
        Linear model of a point-to-point message: ``t = L + m / B``.
    coll_latency:
        Per-stage latency of tree/ring structured collectives (reduce,
        allreduce, exscan, allgathers); a collective over p ranks pays
        ``coll_latency * ceil(log2 p)`` in startup terms.
    a2a_latency, a2a_bandwidth:
        All-to-all personalized communication: per-destination latency (the
        paper reports all-to-all latency *per processor*) and its aggregate
        bandwidth: ``t = a2a_latency * p + max_rank_volume / a2a_bandwidth``.
    compute_cost:
        Seconds per unit of work, by work kind (e.g. ``"scan"`` = one
        attribute-list entry visited during the gini scan).  Kinds absent
        from the mapping fall back to ``default_compute_cost``.
    default_compute_cost:
        Fallback seconds per unit of work.
    memory_per_pe:
        Physical memory per processing element in bytes (T3D: 64 MB);
        used only for reporting headroom, never enforced.
    """

    name: str
    ptp_latency: float
    ptp_bandwidth: float
    coll_latency: float
    a2a_latency: float
    a2a_bandwidth: float
    compute_cost: Mapping[str, float] = field(default_factory=dict)
    default_compute_cost: float = 5.0e-7
    memory_per_pe: int = 64 * 1024 * 1024

    def cost_of(self, kind: str) -> float:
        """Seconds per unit of work of the given kind."""
        return self.compute_cost.get(kind, self.default_compute_cost)

    def with_(self, **changes) -> "MachineSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: Cray T3D-like machine (values reconstructed; see module docstring).
#: 150 MHz Alpha 21064 PEs; MPI point-to-point latency tens of µs and
#: ~30 MB/s; all-to-all with per-processor latency and ~45 MB/s.
CRAY_T3D = MachineSpec(
    name="cray-t3d",
    ptp_latency=50e-6,
    ptp_bandwidth=30e6,
    coll_latency=40e-6,
    a2a_latency=20e-6,
    a2a_bandwidth=45e6,
    compute_cost={
        # one attribute-list entry visited in the per-node gini scan
        "scan": 6.0e-7,
        # one entry moved while partitioning a list into child segments
        "split": 3.0e-7,
        # one (key, value) pair hashed into a communication buffer
        "hash": 2.5e-7,
        # one node-table slot written or read
        "table": 2.0e-7,
        # one comparison in sorting (sample sort is priced per n log n)
        "sort": 2.0e-7,
        # one record evaluated by the synthetic generator / misc per-record
        "record": 2.0e-7,
    },
    default_compute_cost=5.0e-7,
    memory_per_pe=64 * 1024 * 1024,
)

#: Machine with free communication — isolates pure computation time; used
#: by tests to separate overhead terms.
ZERO_LATENCY = MachineSpec(
    name="zero-latency",
    ptp_latency=0.0,
    ptp_bandwidth=float("inf"),
    coll_latency=0.0,
    a2a_latency=0.0,
    a2a_bandwidth=float("inf"),
    compute_cost=dict(CRAY_T3D.compute_cost),
    default_compute_cost=CRAY_T3D.default_compute_cost,
)


def scale_machine(base: MachineSpec, *, latency: float = 1.0,
                  bandwidth: float = 1.0, compute: float = 1.0,
                  name: str | None = None) -> MachineSpec:
    """Scale a machine's latency / bandwidth / compute speed by factors.

    ``bandwidth=2`` doubles both bandwidths (halves transfer time);
    ``compute=2`` doubles processor speed (halves per-op cost).
    """
    return MachineSpec(
        name=name or f"{base.name}(lat×{latency:g},bw×{bandwidth:g},cpu×{compute:g})",
        ptp_latency=base.ptp_latency * latency,
        ptp_bandwidth=base.ptp_bandwidth * bandwidth,
        coll_latency=base.coll_latency * latency,
        a2a_latency=base.a2a_latency * latency,
        a2a_bandwidth=base.a2a_bandwidth * bandwidth,
        compute_cost={k: v / compute for k, v in base.compute_cost.items()},
        default_compute_cost=base.default_compute_cost / compute,
        memory_per_pe=base.memory_per_pe,
    )

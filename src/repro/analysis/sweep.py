"""Experiment sweep driver: run (N × p) grids on the simulated machine.

Every figure reproduction walks the same grid the paper's Figure 3 walks —
training-set sizes against processor counts — collecting the priced
:class:`~repro.perfmodel.report.SimulatedRunStats` of each run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..baselines.parallel_sprint import ParallelSPRINT
from ..core.classifier import ScalParC
from ..core.config import InductionConfig
from ..datagen.schema import Dataset
from ..perfmodel import CRAY_T3D, MachineSpec, SimulatedRunStats

__all__ = ["RunPoint", "run_grid", "ALGORITHMS"]

ALGORITHMS = ("scalparc", "parallel-sprint")


@dataclass(frozen=True)
class RunPoint:
    """One grid cell: algorithm × training-set size × processor count."""

    algorithm: str
    n_records: int
    n_processors: int
    stats: SimulatedRunStats
    tree_nodes: int


def run_grid(
    dataset_factory: Callable[[int], Dataset],
    sizes: Sequence[int],
    processor_counts: Sequence[int],
    *,
    algorithm: str = "scalparc",
    config: InductionConfig | None = None,
    machine: MachineSpec | None = None,
    backend: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[RunPoint]:
    """Run the classifier over every (size, p) cell and collect stats.

    ``dataset_factory(n)`` must return a training set of n records
    (deterministically, so all cells of one size share the data).
    ``backend`` selects the SPMD engine for every cell (the default
    ``thread`` runs at most one rank per core, so large p stays cheap).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}")
    machine = machine if machine is not None else CRAY_T3D
    points: list[RunPoint] = []
    for n in sizes:
        dataset = dataset_factory(n)
        for p in processor_counts:
            facade = ScalParC if algorithm == "scalparc" else ParallelSPRINT
            clf = facade(n_processors=p, config=config, machine=machine,
                         backend=backend)
            result = clf.fit(dataset)
            points.append(RunPoint(
                algorithm=algorithm,
                n_records=n,
                n_processors=p,
                stats=result.stats,
                tree_nodes=result.tree.n_nodes,
            ))
            if progress is not None:
                progress(
                    f"{algorithm} N={n} p={p}: "
                    f"T={result.stats.parallel_time:.3f}s "
                    f"mem={result.stats.memory_per_rank_max}B"
                )
    return points

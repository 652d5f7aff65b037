"""repro — a full reproduction of *ScalParC: A New Scalable and Efficient
Parallel Classification Algorithm for Mining Large Datasets* (Joshi,
Karypis & Kumar, IPPS/SPDP 1998).

Quickstart::

    from repro import ScalParC, paper_dataset, accuracy

    train = paper_dataset(50_000, "F2", seed=0)
    test = paper_dataset(10_000, "F2", seed=1)
    result = ScalParC(n_processors=16).fit(train)
    print(accuracy(result.tree, test))
    print(result.stats.describe())      # modeled Cray-T3D run report

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` — the ScalParC algorithm;
* :mod:`repro.runtime` — simulated MPI-like SPMD runtime;
* :mod:`repro.perfmodel` — Cray-T3D-style performance/memory model;
* :mod:`repro.sort` / :mod:`repro.hashing` — parallel sample sort and the
  parallel hashing paradigm;
* :mod:`repro.datagen` — IBM Quest synthetic workloads (F1–F10);
* :mod:`repro.tree` — decision-tree model, prediction, pruning;
* :mod:`repro.baselines` — serial golden reference + SPRINT comparators;
* :mod:`repro.analysis` — sweeps, speedups and table rendering.
"""

from .baselines import ParallelSPRINT, SerialSPRINT, induce_serial
from .core import (
    FitResult,
    InductionConfig,
    ScalParC,
    fit_scalparc,
)
from .datagen import (
    Dataset,
    Schema,
    generate_quest,
    paper_dataset,
    random_dataset,
)
from .perfmodel import CRAY_T3D, MachineSpec, SimulatedRunStats
from .runtime import available_backends, run_spmd
from .tree import (
    CompiledTree,
    DecisionTree,
    accuracy,
    compile_tree,
    feature_importances,
    confusion_matrix,
    prune_pessimistic,
    summarize,
    to_text,
)

__version__ = "1.0.0"

__all__ = [
    "CRAY_T3D",
    "CompiledTree",
    "Dataset",
    "DecisionTree",
    "FitResult",
    "InductionConfig",
    "MachineSpec",
    "ParallelSPRINT",
    "ScalParC",
    "Schema",
    "SerialSPRINT",
    "SimulatedRunStats",
    "__version__",
    "accuracy",
    "available_backends",
    "compile_tree",
    "confusion_matrix",
    "feature_importances",
    "fit_scalparc",
    "generate_quest",
    "induce_serial",
    "paper_dataset",
    "prune_pessimistic",
    "random_dataset",
    "run_spmd",
    "summarize",
    "to_text",
]

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

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: public name → the subpackage that defines it.  Names load on first
#: use (PEP 562), so ``python -m repro serve`` imports only the serving
#: stack, not the inducers, the engines or the machine model.
_EXPORTS = {
    "ParallelSPRINT": "baselines",
    "SerialSPRINT": "baselines",
    "induce_serial": "baselines",
    "FitResult": "core",
    "InductionConfig": "core",
    "ScalParC": "core",
    "fit_scalparc": "core",
    "Dataset": "datagen",
    "Schema": "datagen",
    "generate_quest": "datagen",
    "paper_dataset": "datagen",
    "random_dataset": "datagen",
    "CRAY_T3D": "perfmodel",
    "MachineSpec": "perfmodel",
    "SimulatedRunStats": "perfmodel",
    "available_backends": "runtime",
    "run_spmd": "runtime",
    "CompiledTree": "tree",
    "DecisionTree": "tree",
    "accuracy": "tree",
    "compile_tree": "tree",
    "confusion_matrix": "tree",
    "feature_importances": "tree",
    "prune_pessimistic": "tree",
    "summarize": "tree",
    "to_text": "tree",
}

__all__ = sorted([*_EXPORTS, "__version__"])

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

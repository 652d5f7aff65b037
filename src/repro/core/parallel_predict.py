"""Parallel scoring: apply an induced tree to a block-distributed dataset.

The paper stops at induction, but any deployed classifier also *applies*
the model; since the training data (and any scoring data) is already
block-distributed, scoring is embarrassingly parallel: each rank routes
its ⌈N/p⌉ record block through the (replicated, small) tree, and a single
collective combines results.  Provided for API completeness and as a
further consumer of the SPMD substrate.
"""

from __future__ import annotations

import numpy as np

from ..datagen.schema import Dataset
from ..perfmodel import CRAY_T3D, MachineSpec
from ..runtime import Communicator, reduction
from ..tree.model import DecisionTree
from .classifier import run_priced

__all__ = ["predict_worker", "parallel_predict", "parallel_score"]


def predict_worker(comm: Communicator, tree: DecisionTree,
                   dataset: Dataset) -> np.ndarray:
    """SPMD worker: predict this rank's record block; returns the *full*
    prediction vector (allgathered, record order).

    Routing goes through the compiled flat-array kernel — each rank
    lowers its (replicated, small) tree once and then routes its whole
    block per level in vectorized steps, the same kernel the serving
    stack runs.
    """
    block = dataset.block(comm.rank, comm.size)
    compiled = tree.compiled()
    local = compiled.predict_columns(block.columns)
    comm.perf.add_compute("record", block.n_records * max(tree.depth, 1))
    return comm.allgatherv(local)


def score_worker(comm: Communicator, tree: DecisionTree,
                 dataset: Dataset) -> float:
    """SPMD worker: fraction of correctly classified records, computed
    with one scalar allreduce instead of gathering predictions."""
    block = dataset.block(comm.rank, comm.size)
    local = tree.compiled().predict_columns(block.columns)
    comm.perf.add_compute("record", block.n_records * max(tree.depth, 1))
    hits = np.int64(np.count_nonzero(local == block.labels))
    total_hits = comm.allreduce(hits, reduction.SUM)
    return float(total_hits) / dataset.n_records


def parallel_predict(
    tree: DecisionTree,
    dataset: Dataset,
    n_processors: int = 4,
    machine: MachineSpec | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Predict labels for every record using ``n_processors`` ranks."""
    if dataset.n_records == 0:
        return np.empty(0, dtype=np.int32)
    results, _ = run_priced(machine, n_processors, predict_worker,
                            (tree, dataset), backend=backend)
    return results[0]


def parallel_score(
    tree: DecisionTree,
    dataset: Dataset,
    n_processors: int = 4,
    machine: MachineSpec | None = CRAY_T3D,
    backend: str | None = None,
) -> float:
    """Accuracy of ``tree`` on ``dataset``, computed in parallel."""
    if dataset.n_records == 0:
        return float("nan")
    results, _ = run_priced(machine, n_processors, score_worker,
                            (tree, dataset), backend=backend)
    return results[0]

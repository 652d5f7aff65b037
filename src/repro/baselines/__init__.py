"""Baselines and oracles.

* :func:`induce_serial` — the serial golden reference (exact-equality
  oracle for ScalParC at any processor count).
* :class:`SerialSPRINT` — serial SPRINT with the §2 hash-memory / disk-IO
  cost model (the paper's motivation, quantified analytically).
* :class:`ParallelSPRINT` — the replicated-hash-table parallel SPRINT
  formulation §3.2 proves unscalable (experiment E4's comparator).
"""

from .parallel_sprint import (
    ParallelSPRINT,
    ReplicatedSprintSplitPhase,
    sprint_worker,
)
from .serial_reference import best_split_for_counts, induce_serial
from .serial_sprint import LevelIO, SerialSPRINT, SprintIOStats

__all__ = [
    "LevelIO",
    "ParallelSPRINT",
    "ReplicatedSprintSplitPhase",
    "SerialSPRINT",
    "SprintIOStats",
    "best_split_for_counts",
    "induce_serial",
    "sprint_worker",
]

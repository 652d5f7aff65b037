"""Serial SPRINT cost model: hash-table memory pressure and disk passes.

§2 motivates ScalParC with serial SPRINT's weakness: its splitting phase
builds an on-the-fly hash table per node whose size is proportional to the
records at the node — O(N) at the upper levels — and "if the hash table
does not fit in the main memory, multiple passes need to be done over the
entire data requiring additional expensive disk I/O".

:class:`SerialSPRINT` induces the (identical) tree serially and accounts
exactly that cost: per internal node, the hash table needs ``n_records``
entries; with a memory budget of B entries the splitting phase runs
``⌈n_records / B⌉`` passes, each re-scanning the node's non-splitting
attribute lists.  The resulting per-level pass/IO profile is the
quantitative version of the paper's motivation (and shows the multi-pass
cliff exactly at the upper levels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import InductionConfig
from ..datagen.schema import Dataset
from ..tree.compile import KIND_LEAF
from ..tree.model import DecisionTree
from .serial_reference import induce_serial

__all__ = ["SerialSPRINT", "SprintIOStats", "LevelIO"]


@dataclass(frozen=True)
class LevelIO:
    """Splitting-phase cost of one tree level under a memory budget."""

    level: int
    n_internal_nodes: int
    #: records across the level's internal nodes = total hash entries built
    hash_entries: int
    #: largest single-node hash table (the binding memory requirement)
    max_hash_entries: int
    #: total splitting-phase passes over attribute lists (1 per node if
    #: everything fits)
    passes: int
    #: attribute-list entries read during splitting (re-reads included)
    entries_scanned: int
    #: entries re-read *beyond* the single-pass minimum — the "expensive
    #: disk I/O" of §2
    extra_io_entries: int


@dataclass(frozen=True)
class SprintIOStats:
    """Whole-run splitting-phase IO profile."""

    memory_budget_entries: int | None
    n_attributes: int
    levels: tuple[LevelIO, ...]

    @property
    def total_extra_io(self) -> int:
        return sum(lv.extra_io_entries for lv in self.levels)

    @property
    def total_passes(self) -> int:
        return sum(lv.passes for lv in self.levels)

    @property
    def peak_hash_entries(self) -> int:
        return max((lv.max_hash_entries for lv in self.levels), default=0)

    def describe(self) -> str:
        """Multi-line per-level IO summary."""
        budget = (f"{self.memory_budget_entries} entries"
                  if self.memory_budget_entries else "unbounded")
        lines = [f"serial SPRINT splitting-phase IO (budget: {budget})"]
        for lv in self.levels:
            lines.append(
                f"  level {lv.level}: {lv.n_internal_nodes} nodes, "
                f"max hash {lv.max_hash_entries}, passes {lv.passes}, "
                f"extra IO {lv.extra_io_entries} entries"
            )
        lines.append(
            f"  total extra IO: {self.total_extra_io} entries over "
            f"{self.total_passes} passes"
        )
        return "\n".join(lines)


class SerialSPRINT:
    """Serial SPRINT: identical tree, explicit hash-memory accounting.

    Parameters
    ----------
    config:
        Induction configuration (shared semantics with ScalParC).
    memory_budget_entries:
        Hash-table entries that fit in memory; ``None`` = unbounded
        (single pass everywhere).
    """

    def __init__(self, config: InductionConfig | None = None,
                 memory_budget_entries: int | None = None):
        if memory_budget_entries is not None and memory_budget_entries <= 0:
            raise ValueError("memory_budget_entries must be positive")
        self.config = config or InductionConfig()
        self.memory_budget_entries = memory_budget_entries

    def fit(self, dataset: Dataset) -> tuple[DecisionTree, SprintIOStats]:
        """Induce the tree and compute the splitting-phase IO profile."""
        tree = induce_serial(dataset, self.config)
        n_attrs = len(dataset.schema)

        # internal nodes' sizes, level by level
        table = tree.compiled()
        split = table.kind != KIND_LEAF
        depths, records = table.depths[split], table.n_records[split]

        levels: list[LevelIO] = []
        budget = self.memory_budget_entries
        for depth in range(int(depths.max(initial=-1)) + 1):
            sizes = records[depths == depth]
            if budget is None:
                passes_per_node = np.ones_like(sizes)
            else:
                passes_per_node = -(-sizes // budget)
            # each pass re-reads the node's n_attrs−1 non-splitting lists
            # (the splitting attribute's list is split while building the
            # hash table, pass-free)
            scan_unit = sizes * max(n_attrs - 1, 0)
            scanned = int(np.sum(scan_unit * passes_per_node))
            minimum = int(np.sum(scan_unit))
            levels.append(LevelIO(
                level=depth,
                n_internal_nodes=len(sizes),
                hash_entries=int(sizes.sum()),
                max_hash_entries=int(sizes.max()),
                passes=int(passes_per_node.sum()),
                entries_scanned=scanned,
                extra_io_entries=scanned - minimum,
            ))
        return tree, SprintIOStats(
            memory_budget_entries=budget,
            n_attributes=n_attrs,
            levels=tuple(levels),
        )

"""SLIQ/R: attribute-partitioned (vertical) parallelism with a replicated
class list.

The SPRINT paper (which ScalParC §1 builds on) discusses parallelizing
SLIQ by **partitioning attributes** across processors — each processor
owns the complete sorted lists of a subset of attributes — while the
class list is **replicated** (SLIQ/R).  Split determination is then
embarrassingly parallel per attribute, but the splitting phase must ship
the record→child outcome of the winning attribute to every processor,
an O(N)-per-processor exchange each level, and the replicated class list
keeps per-processor memory Ω(N).

This implementation reuses the repo's SLIQ scan kernel per rank and the
BEST_SPLIT reduction for the global winner; trees are identical to every
other classifier here.  It exists as the *third* parallel comparator:
horizontal ScalParC (O(N/p) everything) vs horizontal SPRINT (O(N)
splitting) vs vertical SLIQ/R (O(N) class list + O(N) level exchange,
plus a hard parallelism cap at n_attributes).
"""

from __future__ import annotations

import numpy as np

from ..core.config import InductionConfig
from ..core.criteria import best_categorical_split, impurity
from ..core.splits import (
    BEST_SPLIT,
    candidate_beats,
    categorical_children_layout,
    encode_mask,
    pack_candidates,
)
from ..datagen.schema import Dataset
from ..runtime import Communicator, reduction
from ..tree.model import (
    CategoricalSplit,
    ContinuousSplit,
    DecisionTree,
    Leaf,
    TreeNode,
)
from .sliq import SliqClassifier

__all__ = ["VerticalSliqClassifier", "vertical_sliq_worker"]


def vertical_sliq_worker(
    comm: Communicator,
    dataset: Dataset,
    config: InductionConfig | None = None,
) -> DecisionTree:
    """SPMD worker: vertical SLIQ/R induction.

    Rank r owns attributes ``a ≡ r (mod p)`` in full; the class list
    (labels + current leaf of all N records) is replicated everywhere.
    """
    config = config or InductionConfig()
    if dataset.n_records == 0:
        raise ValueError("cannot induce a tree from an empty dataset")
    schema = dataset.schema
    n = dataset.n_records
    n_classes = schema.n_classes

    my_attrs = [a for a in range(len(schema)) if a % comm.size == comm.rank]

    # presort my attributes once (full columns — vertical partitioning)
    my_lists: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    data_bytes = 0
    for a in my_attrs:
        col = dataset.columns[a]
        rids = np.arange(n, dtype=np.int64)
        if schema[a].is_continuous:
            order = np.lexsort((rids, col))
            my_lists[a] = (col[order].astype(np.float64), rids[order])
        else:
            my_lists[a] = (col.astype(np.int64), rids)
        data_bytes += my_lists[a][0].nbytes + my_lists[a][1].nbytes
    comm.perf.register_bytes("vertical_attr_lists", data_bytes)

    # the replicated class list — Ω(N) on every rank
    klass = dataset.labels.astype(np.int64)
    leaf_of = np.zeros(n, dtype=np.int64)
    comm.perf.register_bytes("replicated_class_list",
                             int(klass.nbytes + leaf_of.nbytes))

    root_holder: list[TreeNode | None] = [None]

    def attach(node: TreeNode, parent: TreeNode | None, slot: int) -> None:
        if parent is None:
            root_holder[0] = node
        else:
            parent.children[slot] = node

    pending: list[tuple[TreeNode | None, int, int]] = [(None, 0, 0)]

    while pending:
        m = len(pending)
        live = leaf_of >= 0
        totals = np.bincount(
            leaf_of[live] * n_classes + klass[live],
            minlength=m * n_classes,
        ).reshape(m, n_classes)
        comm.perf.add_compute("scan", int(np.count_nonzero(live)))
        n_node = totals.sum(axis=1)
        depth_of = np.array([d for (_, _, d) in pending], dtype=np.int64)
        terminal = (totals.max(axis=1) == n_node) | (
            n_node < config.min_split_records
        )
        if config.max_depth is not None:
            terminal |= depth_of >= config.max_depth
        candidate_nodes = ~terminal

        # ---- split determination: my attributes only ----------------------
        local_best = pack_candidates(m)
        cat_state: dict[tuple[int, int], tuple] = {}
        if bool(candidate_nodes.any()):
            for a in my_attrs:
                values, rids = my_lists[a]
                nodes = leaf_of[rids]
                live_e = nodes >= 0
                comm.perf.add_compute("scan", n)
                if schema[a].is_continuous:
                    rows = SliqClassifier._scan_continuous(
                        values[live_e], nodes[live_e], klass[rids[live_e]],
                        totals, candidate_nodes, a, config,
                    )
                else:
                    rows = pack_candidates(m)
                    matrix = np.bincount(
                        (nodes[live_e] * schema[a].n_values
                         + values[live_e]) * n_classes
                        + klass[rids[live_e]],
                        minlength=m * schema[a].n_values * n_classes,
                    ).reshape(m, schema[a].n_values, n_classes)
                    for k in np.nonzero(candidate_nodes)[0]:
                        score, mask = best_categorical_split(
                            matrix[k], config.criterion,
                            binary_subsets=config.categorical_binary_subsets,
                            exhaustive_limit=config.subset_exhaustive_limit,
                        )
                        if np.isfinite(score):
                            code = (encode_mask(mask)
                                    if mask is not None else 0.0)
                            rows[k] = (score, float(a), code)
                            cat_state[(a, int(k))] = (matrix[k], mask)
                take = candidate_beats(rows, local_best)
                local_best = np.where(take[:, None], rows, local_best)
            best = comm.allreduce(local_best, BEST_SPLIT)
        else:
            best = local_best

        parent_imp = impurity(totals, config.criterion)
        split_ok = (
            candidate_nodes
            & np.isfinite(best[:, 0])
            & (parent_imp - best[:, 0] >= config.min_improvement)
        )

        # categorical layouts come from the owning rank
        my_layouts: dict[int, tuple[list[int], int, int]] = {}
        for k in np.nonzero(split_ok)[0]:
            attr = int(best[k, 1])
            if not schema[attr].is_continuous and (attr, int(k)) in cat_state:
                matrix, mask = cat_state[(attr, int(k))]
                v2c, n_children, default = categorical_children_layout(
                    matrix, mask
                )
                my_layouts[int(k)] = (v2c.tolist(), n_children, default)
        merged_layouts: dict[int, tuple[list[int], int, int]] = {}
        if bool(split_ok.any()):
            for part in comm.allgather(my_layouts):
                merged_layouts.update(part)

        # ---- build tree nodes (identical on every rank) --------------------
        child_base = np.zeros(m, dtype=np.int64)
        n_next = 0
        new_pending: list[tuple[TreeNode | None, int, int]] = []
        layout_arrays: dict[int, np.ndarray] = {}
        for k in range(m):
            parent, slot, depth = pending[k]
            if not split_ok[k]:
                attach(
                    Leaf(label=int(np.argmax(totals[k])),
                         n_records=int(n_node[k]),
                         class_counts=totals[k].copy(), depth=depth),
                    parent, slot,
                )
                continue
            attr = int(best[k, 1])
            child_base[k] = n_next
            if schema[attr].is_continuous:
                node: TreeNode = ContinuousSplit(
                    attr_index=attr, threshold=float(best[k, 2]),
                    n_records=int(n_node[k]),
                    class_counts=totals[k].copy(), depth=depth,
                    children=[None, None],
                )
                n_children = 2
            else:
                v2c_list, n_children, default = merged_layouts[k]
                v2c = np.asarray(v2c_list, dtype=np.int32)
                layout_arrays[k] = v2c.astype(np.int64)
                node = CategoricalSplit(
                    attr_index=attr, value_to_child=v2c,
                    n_records=int(n_node[k]),
                    class_counts=totals[k].copy(), depth=depth,
                    children=[None] * n_children, default_child=default,
                )
            attach(node, parent, slot)
            for c in range(n_children):
                new_pending.append((node, c, depth + 1))
            n_next += n_children

        # ---- splitting phase: O(N) class-list exchange ----------------------
        # each rank fills child assignments for nodes whose winning
        # attribute it owns; an elementwise-MAX allreduce over the full
        # N-entry array replicates the updated class list everywhere —
        # the O(N)-per-processor step that caps SLIQ/R's scalability
        partial = np.full(n, -1, dtype=np.int64)
        for k in np.nonzero(split_ok)[0]:
            attr = int(best[k, 1])
            if attr not in my_lists:
                continue
            values, rids = my_lists[attr]
            in_node = leaf_of[rids] == k
            if schema[attr].is_continuous:
                child = (values[in_node] >= best[k, 2]).astype(np.int64)
            else:
                child = layout_arrays[k][values[in_node]]
            partial[rids[in_node]] = child_base[k] + child
            comm.perf.add_compute("split", int(in_node.sum()))
        if n_next:
            leaf_of = comm.allreduce(partial, reduction.MAX)
        else:
            leaf_of = partial
        pending = new_pending

    assert root_holder[0] is not None
    return DecisionTree(schema=schema, root=root_holder[0])


class VerticalSliqClassifier:
    """Driver for the vertical SLIQ/R formulation (comparison baseline).

    ``n_processors`` beyond the attribute count adds idle ranks — the
    formulation's intrinsic parallelism cap, visible in the stats.
    """

    def __init__(self, n_processors: int = 4,
                 config: InductionConfig | None = None, machine=None,
                 backend: str | None = None):
        from ..perfmodel import CRAY_T3D

        if n_processors <= 0:
            raise ValueError(
                f"n_processors must be positive, got {n_processors}"
            )
        self.n_processors = n_processors
        self.config = config or InductionConfig()
        self.machine = CRAY_T3D if machine is None else machine
        self.backend = backend if backend is not None else self.config.backend

    def fit(self, dataset: Dataset):
        """Train on the simulated machine; returns tree + priced stats."""
        from ..core.classifier import FitResult, run_priced

        trees, stats = run_priced(
            self.machine, self.n_processors, vertical_sliq_worker,
            (dataset, self.config), backend=self.backend,
        )
        return FitResult(tree=trees[0], stats=stats,
                         n_processors=self.n_processors)

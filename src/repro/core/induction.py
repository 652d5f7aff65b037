"""Level-synchronous tree-induction driver (Figure 2).

::

    Presort
    l = 0
    do while (there are non-empty nodes at level l)
        FindSplitI ; FindSplitII
        PerformSplitI ; PerformSplitII
        l = l + 1
    end do

Every rank runs this loop; all tree-shaping information (per-node class
totals, winning splits, categorical child layouts) is global after the
level's reductions, so every rank builds an identical copy of the decision
tree — the driver returns rank 0's copy, and the test suite asserts the
copies (and the serial reference's tree) are structurally equal.
"""

from __future__ import annotations

import numpy as np

from ..datagen.schema import Dataset
from ..runtime import Communicator
from ..runtime.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    LevelCheckpointer,
    LoadedCheckpoint,
    rank_extras,
    resolve_checkpoint,
    restore_rank_extras,
)
from ..runtime.tracing import tag_level
from ..tree.model import (
    CategoricalSplit,
    ContinuousSplit,
    DecisionTree,
    Leaf,
    TreeNode,
)
from .attribute_lists import build_local_lists, restore_local_lists
from .config import InductionConfig
from .criteria import impurity
from .findsplit import node_class_totals
from .phases import FINDSPLIT1, FINDSPLIT2, PRESORT, timed_phase
from .splits import categorical_children_layout, pack_candidates
from .splitter import LevelDecisions, ScalParCSplitPhase, SplitPhase
from .strategies import make_strategy

__all__ = ["induce_worker"]

#: manifest tag identifying induction checkpoints (vs. other workers')
_CKPT_ALGO = "scalparc-induction"


def induce_worker(
    comm: Communicator,
    dataset: Dataset,
    config: InductionConfig | None = None,
    split_phase: SplitPhase | None = None,
    checkpoint: CheckpointConfig | str | None = None,
) -> DecisionTree:
    """SPMD worker: induce the decision tree for ``dataset`` collectively.

    Each rank operates on its ⌈N/p⌉ record block; the returned tree is
    identical on every rank.  ``split_phase`` selects the splitting-phase
    strategy (default: ScalParC's distributed node table; the parallel
    SPRINT baseline plugs in its replicated table here).

    ``checkpoint`` enables level-boundary checkpointing (a
    :class:`~repro.runtime.checkpoint.CheckpointConfig`, a directory
    path, or ``None`` to defer to ``REPRO_SPMD_CHECKPOINT``).  With
    ``resume`` set in the config, induction skips Presort and continues
    from the cut's frontier — on the checkpoint's world size or a
    different one (attribute lists and node table are re-blocked), with
    a bit-identical resulting tree either way.
    """
    config = config or InductionConfig()
    strategy = make_strategy(config)
    split_phase = split_phase if split_phase is not None \
        else ScalParCSplitPhase()
    if dataset.n_records == 0:
        raise ValueError("cannot induce a tree from an empty dataset")
    if len(dataset.schema) == 0:
        raise ValueError("dataset has no attributes")
    schema = dataset.schema
    n_classes = schema.n_classes

    ckpt_cfg = resolve_checkpoint(checkpoint)
    ckpt = LevelCheckpointer(ckpt_cfg) if ckpt_cfg is not None else None
    resume_src = ckpt_cfg.resume_source() if ckpt_cfg is not None else None

    root_holder: list[TreeNode | None] = [None]

    def attach(node: TreeNode, parent: TreeNode | None, slot: int) -> None:
        if parent is None:
            root_holder[0] = node
        else:
            parent.children[slot] = node

    if resume_src is not None:
        lists, n_total, pending, level = _resume_from_checkpoint(
            comm, resume_src, dataset, config, split_phase, root_holder
        )
    else:
        # Presort + initial distribution
        with timed_phase(comm, PRESORT):
            lists, n_total = build_local_lists(comm, dataset)
            strategy.prepare(comm, lists, config, n_classes, n_total)
            split_phase.setup(comm, n_total)
        # pending[k] = (parent node, child slot, depth) of active node k
        pending = [(None, 0, 0)]
        level = 0

    while pending:
        m = len(pending)
        tag_level(comm, level)
        with timed_phase(comm, FINDSPLIT1):
            totals = node_class_totals(comm, lists[0], m, n_classes)
        n_node = totals.sum(axis=1)
        depth_of = np.array([d for (_, _, d) in pending], dtype=np.int64)

        terminal = (totals.max(axis=1) == n_node) | (
            n_node < config.min_split_records
        )
        if config.max_depth is not None:
            terminal |= depth_of >= config.max_depth
        candidate_nodes = ~terminal

        # ---- FindSplitI + FindSplitII ---------------------------------
        # the split strategy owns local statistics, the collective plan
        # and candidate scoring (see repro.core.strategies); exact keeps
        # the pre-strategy schedule bit for bit, histogram/voted swap the
        # per-attribute exscans for count-cube allreduces
        local_best = pack_candidates(m)
        cat_state: dict[int, dict[int, tuple[np.ndarray, np.ndarray | None]]] = {}
        if bool(candidate_nodes.any()):
            local_best, cat_state = strategy.level_candidates(
                comm, lists, totals, candidate_nodes, config
            )
            with timed_phase(comm, FINDSPLIT2):
                best = strategy.global_best(comm, local_best, config)
        else:
            best = local_best

        parent_imp = impurity(totals, config.criterion)
        split_ok = (
            candidate_nodes
            & np.isfinite(best[:, 0])
            & (parent_imp - best[:, 0] >= config.min_improvement)
        )

        # ---- categorical child layouts from the coordinators -----------
        my_layouts: dict[int, tuple[list[int], int, int]] = {}
        for k in np.nonzero(split_ok)[0]:
            attr = int(best[k, 1])
            if not schema[attr].is_continuous and attr in cat_state \
                    and int(k) in cat_state[attr]:
                matrix, mask = cat_state[attr][int(k)]
                v2c, n_children, default = categorical_children_layout(
                    matrix, mask
                )
                my_layouts[int(k)] = (v2c.tolist(), n_children, default)
        merged_layouts: dict[int, tuple[list[int], int, int]] = {}
        if bool(split_ok.any()):
            with timed_phase(comm, FINDSPLIT2):
                for part in comm.allgather(my_layouts):
                    merged_layouts.update(part)

        # ---- build this level's tree nodes (identically on every rank) --
        winner_attr = np.full(m, -1, dtype=np.int64)
        threshold = np.full(m, np.nan, dtype=np.float64)
        cat_layout_arrays: dict[int, np.ndarray] = {}
        child_base = np.zeros(m, dtype=np.int64)
        n_next = 0
        new_pending: list[tuple[TreeNode | None, int, int]] = []

        for k in range(m):
            parent, slot, depth = pending[k]
            counts_k = totals[k]
            if not split_ok[k]:
                if int(n_node[k]) == 0 and parent is not None:
                    # an empty child (a multiway categorical value with no
                    # records at this node) has all-zero counts: argmax
                    # would always say class 0 — inherit the parent's
                    # majority instead
                    label = int(np.argmax(parent.class_counts))
                else:
                    label = int(np.argmax(counts_k))
                attach(
                    Leaf(label=label,
                         n_records=int(n_node[k]),
                         class_counts=counts_k.copy(), depth=depth),
                    parent, slot,
                )
                continue
            attr = int(best[k, 1])
            winner_attr[k] = attr
            child_base[k] = n_next
            if schema[attr].is_continuous:
                threshold[k] = best[k, 2]
                node: TreeNode = ContinuousSplit(
                    attr_index=attr, threshold=float(best[k, 2]),
                    n_records=int(n_node[k]), class_counts=counts_k.copy(),
                    depth=depth, children=[None, None],
                )
                n_children = 2
            else:
                v2c_list, n_children, default = merged_layouts[k]
                v2c = np.asarray(v2c_list, dtype=np.int32)
                cat_layout_arrays[k] = v2c.astype(np.int64)
                node = CategoricalSplit(
                    attr_index=attr, value_to_child=v2c,
                    n_records=int(n_node[k]), class_counts=counts_k.copy(),
                    depth=depth, children=[None] * n_children,
                    default_child=default,
                )
            attach(node, parent, slot)
            for c in range(n_children):
                new_pending.append((node, c, depth + 1))
            n_next += n_children

        # ---- PerformSplitI + PerformSplitII -----------------------------
        if n_next:
            decisions = LevelDecisions(
                splitting=split_ok,
                winner_attr=winner_attr,
                threshold=threshold,
                cat_layouts=cat_layout_arrays,
                child_base=child_base,
                n_next=n_next,
            )
            split_phase.execute(comm, lists, decisions, config)

        pending = new_pending
        comm.perf.mark_level(level)
        level += 1

        # Records still in play next level = everything inside splitting
        # nodes.  Once that drops below min_frontier_frac of the training
        # set, cuts cost more (the partial tree keeps growing) than the
        # cheap tail levels they would protect, so stop taking them.
        n_active = int(n_node[split_ok].sum())
        if (ckpt is not None and pending and ckpt.should_save(level - 1)
                and n_active >= ckpt.config.min_frontier_frac * n_total):
            _save_checkpoint(comm, ckpt, level, lists, split_phase,
                             root_holder[0], pending, n_total, dataset,
                             config)

    if ckpt is not None:
        ckpt.finalize(comm)   # drain pipelined writes; seal the last cut
    assert root_holder[0] is not None
    return DecisionTree(schema=schema, root=root_holder[0])


def _save_checkpoint(
    comm: Communicator,
    ckpt: LevelCheckpointer,
    level: int,
    lists,
    split_phase: SplitPhase,
    root: TreeNode | None,
    pending,
    n_total: int,
    dataset: Dataset,
    config: InductionConfig,
) -> None:
    """Write one consistent cut at a level boundary (collective).

    The per-rank payload carries everything distribution-dependent
    (attribute-list fragments, the split strategy's table share, tracker
    and RNG state); the replicated payload carries the partial tree and
    the pending frontier — one pickle, so the frontier's parent
    references resolve into the same tree object graph on load.

    List snapshots are *compact* (rids + offsets only; values and labels
    re-derived from the dataset on resume) whenever the dataset holds
    materialized columns; generate-on-demand sources cannot serve random
    access by record id, so their snapshots embed the arrays verbatim.
    """
    compact = getattr(dataset, "columns", None) is not None
    rank_payload = {
        "lists": [alist.snapshot_state(compact=compact) for alist in lists],
        "split_phase": split_phase.snapshot_state(),
        **rank_extras(comm),
    }
    shared_payload = {
        **config.cut_header(_CKPT_ALGO, dataset.schema),
        "n_total": int(n_total),
        "tree": (root, list(pending)),
    }
    ckpt.save(comm, level, rank_payload, shared_payload,
              meta={"algo": _CKPT_ALGO, "n_total": int(n_total),
                    "n_pending": len(pending)})


def _resume_from_checkpoint(
    comm: Communicator,
    source: str,
    dataset: Dataset,
    config: InductionConfig,
    split_phase: SplitPhase,
    root_holder: list,
) -> tuple[list, int, list, int]:
    """Reload a cut and return ``(lists, n_total, pending, level)``.

    Every rank reads all old ranks' payloads (digest-validated), so the
    p == p′ fast path and the p → p′ re-blocked path share one code
    path; tracker/RNG state is restored only when the world size
    matches (it is meaningless per-rank otherwise).
    """
    loaded = LoadedCheckpoint.open(source)
    shared = loaded.expect(**config.cut_header(_CKPT_ALGO, dataset.schema))
    if int(shared["n_total"]) != dataset.n_records:
        raise CheckpointError(
            f"checkpoint holds {shared['n_total']} records but the dataset "
            f"has {dataset.n_records}; resume needs the same training set"
        )

    payloads = loaded.all_rank_payloads()
    lists = restore_local_lists(
        comm, dataset, [p["lists"] for p in payloads]
    )
    split_phase.restore_state(comm, [p["split_phase"] for p in payloads])
    if loaded.n_ranks == comm.size:
        restore_rank_extras(comm, payloads[comm.rank])

    root, pending = shared["tree"]
    root_holder[0] = root
    return lists, int(shared["n_total"]), list(pending), loaded.level

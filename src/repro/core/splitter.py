"""PerformSplitI / PerformSplitII: the splitting phase (§3.3.2, §4).

Given every node's winning split:

* **PerformSplitI** — the lists of splitting attributes are split locally
  (each entry's child follows directly from the decision), hash buffers of
  (record id → next-level node) pairs are formed, and the distributed node
  table is updated through the parallel hashing paradigm — in blocked
  rounds of ≤ ⌈N/p⌉ updates per rank for memory scalability, as the
  paper always does.
* **PerformSplitII** — the lists of all non-splitting attributes are
  split: each entry's next-level node is read from the node table — in
  place for the record ids this rank owns, through one enquiry for the
  rest — and drives a stable local regroup of the list, one per record
  block (the categorical lists share theirs).

Communication is batched **per level** (§3.1): one table update (in
blocked rounds) and one enquiry covering every attribute's requests per
level, however many nodes split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hashing import DistributedNodeTable
from ..runtime import CheckpointError, Communicator
from .attribute_lists import LocalAttributeList, block_leaders, \
    regroup_lists
from .config import InductionConfig
from .phases import PERFORMSPLIT1, PERFORMSPLIT2, timed_phase

__all__ = ["LevelDecisions", "perform_split", "SplitPhase", "ScalParCSplitPhase"]


@dataclass
class LevelDecisions:
    """Per-active-node split decisions of one level (identical on every
    rank; produced by the induction driver from global information)."""

    #: nodes that split this level
    splitting: np.ndarray
    #: winning attribute index per node (−1 where not splitting)
    winner_attr: np.ndarray
    #: threshold per node (continuous winners only; NaN elsewhere)
    threshold: np.ndarray
    #: node → value_to_child array (categorical winners only)
    cat_layouts: dict[int, np.ndarray] = field(default_factory=dict)
    #: first next-level node id of each splitting node's children
    #: (required whenever any node splits)
    child_base: np.ndarray | None = None
    #: total number of next-level nodes
    n_next: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` on malformed decisions (wrong-length
        arrays, a splitting level without ``child_base``/``n_next``, a
        categorical winner without its layout) *before* the splitting
        phase dereferences them deep inside ``_local_children``."""
        m = len(self.splitting)
        for name in ("winner_attr", "threshold"):
            arr = getattr(self, name)
            if arr is None or len(arr) != m:
                raise ValueError(
                    f"malformed LevelDecisions: {name} must align with "
                    f"splitting ({m} nodes), got "
                    f"{'None' if arr is None else len(arr)}"
                )
        if not bool(np.asarray(self.splitting).any()):
            return
        if self.child_base is None:
            raise ValueError(
                "malformed LevelDecisions: child_base is required when any "
                "node splits"
            )
        if len(self.child_base) != m:
            raise ValueError(
                f"malformed LevelDecisions: child_base must align with "
                f"splitting ({m} nodes), got {len(self.child_base)}"
            )
        if self.n_next <= 0:
            raise ValueError(
                "malformed LevelDecisions: n_next must be positive when any "
                "node splits"
            )


def _local_children(
    alist: LocalAttributeList,
    decisions: LevelDecisions,
) -> tuple[np.ndarray, np.ndarray]:
    """Next-level node id of each local entry whose node's *winner* is this
    attribute; returns (entry idx, ids).

    This is the "split the list of the splitting attribute directly"
    step — no table access needed (§2: the information is obtained from
    the splitting decision and the record ids of the splitting attribute's
    list).

    Both branches are entry-vectorized: continuous winners gather their
    per-node threshold directly; categorical winners route through a
    dense (node, value) → child scatter table built once from the level's
    layouts, so the rid→child lookup is a single fancy-index gather
    instead of a per-node mask loop.
    """
    nodes = alist.entry_nodes()
    mine = decisions.splitting & (decisions.winner_attr == alist.attr_index)
    if not mine.any():
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    if alist.spec.is_continuous:
        idx = np.nonzero(mine[nodes])[0]
        k = nodes[idx]
        child = (alist.values[idx] >= decisions.threshold[k]).astype(np.int64)
        return idx, decisions.child_base[k] + child

    ks = np.nonzero(mine)[0]
    n_values = alist.spec.n_values
    # (splitting node, value) → child scatter table; rows are tiny
    # (n_values entries), so building it costs O(m·V), not O(n_local)
    table = np.array(
        [decisions.cat_layouts[int(k)] for k in ks], dtype=np.int64
    ).reshape(len(ks), n_values)
    row_of = np.full(len(mine), -1, dtype=np.int64)
    row_of[ks] = np.arange(len(ks), dtype=np.int64)
    idx = np.flatnonzero(mine.take(nodes))
    k = nodes.take(idx)
    # flat-ravel take: one contiguous gather instead of the much slower
    # two-array advanced indexing
    flat = row_of.take(k) * n_values + alist.values.take(idx)
    return idx, decisions.child_base.take(k) + table.ravel().take(flat)


def perform_split(
    comm: Communicator,
    lists: list[LocalAttributeList],
    table: DistributedNodeTable,
    decisions: LevelDecisions,
    config: InductionConfig,
) -> None:
    """Execute PerformSplitI + PerformSplitII for one level.

    Collective: every rank must call with the identical ``decisions``.
    On return, every attribute list is regrouped by next-level node and
    entries of terminal nodes are dropped.
    """
    decisions.validate()

    # --- PerformSplitI: split winner lists, update the node table ---------
    with timed_phase(comm, PERFORMSPLIT1):
        winner_entries = [_local_children(alist, decisions) for alist in lists]
        for entries, _ in winner_entries:
            comm.perf.add_compute("split", len(entries))
        rids = np.concatenate(
            [alist.rids[entries]
             for alist, (entries, _) in zip(lists, winner_entries)]
            + [np.empty(0, dtype=np.int64)]
        )
        ids = np.concatenate(
            [ids for _, ids in winner_entries] + [np.empty(0, dtype=np.int64)]
        )
        table.update(rids, ids.astype(np.int32),
                     max_block=config.max_update_block)

    # --- PerformSplitII: split the other lists via one enquiry ------------
    with timed_phase(comm, PERFORMSPLIT2):
        splitting = decisions.splitting
        # a record block's lists share one regroup: its leader's next-level
        # ids serve them all, so only the leader reads the table
        lead = block_leaders(lists)
        homes: dict[int, np.ndarray | None] = {}
        per_list: list[tuple[np.ndarray | None, np.ndarray | None]] = []
        away_keys: list[np.ndarray] = []
        answered = 0
        for i, (alist, (entries, ids)) in enumerate(zip(lists,
                                                        winner_entries)):
            sizes = np.diff(alist.offsets)
            new_nodes = None
            if lead[i] == i:
                # PerformSplitI left every splitting record's child in its
                # home slot: the rids this rank owns read it in place
                new_nodes, homes[i] = table.read_home(alist.rids)
                if not splitting.all():
                    np.putmask(new_nodes, np.repeat(~splitting, sizes), -1)
            home = homes[lead[i]]
            # entries of splitting nodes whose winner is another attribute
            need = splitting & (decisions.winner_attr != alist.attr_index)
            asked = int(sizes[need].sum())
            away = None
            if home is not None:
                if new_nodes is not None:
                    # the winner's own entries, away ones included
                    new_nodes[entries] = ids
                # a follower still asks for its away ids: the enquiry
                # is the paper's, list by list
                away = np.flatnonzero(np.repeat(need, sizes) & ~home)
                away_keys.append(alist.rids[away])
                asked -= len(away)
            answered += asked
            per_list.append((new_nodes, away))

        # one enquiry covering every attribute's away requests: a single
        # all-to-all latency pair per level; the home ones are booked
        answers = table.enquire(
            np.concatenate(away_keys + [np.empty(0, dtype=np.int64)]),
            answered=answered,
        )
        offset = 0
        for new_nodes, away in per_list:
            if away is not None:
                if new_nodes is not None:
                    new_nodes[away] = answers[offset:offset + len(away)]
                offset += len(away)

        regroup_lists(comm, lists, [new_nodes for new_nodes, _ in per_list],
                      decisions.n_next)


class SplitPhase:
    """Strategy interface for the splitting phase.

    The induction driver (Figure 2) is agnostic to *how* attribute lists
    learn their entries' next-level nodes; ScalParC's distributed node
    table and parallel SPRINT's replicated table are two implementations.
    """

    def setup(self, comm: Communicator, n_total: int) -> None:
        """Collective one-time initialization before level 0."""
        raise NotImplementedError

    def execute(
        self,
        comm: Communicator,
        lists: list[LocalAttributeList],
        decisions: LevelDecisions,
        config: InductionConfig,
    ) -> None:
        """Collective PerformSplitI+II for one level."""
        raise NotImplementedError

    def require_checkpointable(self) -> None:
        """Refuse a checkpointed fit this strategy cannot snapshot: raises
        :class:`~repro.runtime.checkpoint.CheckpointError` unless both
        state hooks are overridden.  Called before Presort (and by the
        facades before launch), so nothing is sorted first."""
        cls = type(self)
        if (cls.snapshot_state is SplitPhase.snapshot_state
                or cls.restore_state is SplitPhase.restore_state):
            raise CheckpointError(
                f"{cls.__name__} does not support checkpointing: unset "
                f"REPRO_SPMD_CHECKPOINT / checkpoint= for this model"
            )

    def snapshot_state(self) -> dict:
        """This rank's picklable share of the strategy's state, for the
        level checkpointer.  Strategies that do not override this cannot
        be checkpointed."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing "
            f"(snapshot_state is not implemented)"
        )

    def restore_state(self, comm: Communicator, states: list[dict]) -> None:
        """Collectively rebuild the strategy's state from per-old-rank
        snapshots (old-rank order; the old world size may differ)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing "
            f"(restore_state is not implemented)"
        )


class ScalParCSplitPhase(SplitPhase):
    """The paper's splitting phase: distributed node table + parallel
    hashing paradigm (O(N/p) memory and traffic per rank)."""

    def __init__(self) -> None:
        self.table: DistributedNodeTable | None = None

    def setup(self, comm: Communicator, n_total: int) -> None:
        self.table = DistributedNodeTable(comm, n_total)

    def execute(self, comm, lists, decisions, config) -> None:
        assert self.table is not None, "setup() must run before execute()"
        perform_split(comm, lists, self.table, decisions, config)

    def snapshot_state(self) -> dict:
        assert self.table is not None, "setup() must run before snapshot"
        return self.table.snapshot_state()

    def restore_state(self, comm, states) -> None:
        self.table = DistributedNodeTable.from_snapshots(comm, states)

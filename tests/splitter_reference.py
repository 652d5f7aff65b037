"""Reference path of the splitting phase (``repro.core.splitter``).

:func:`perform_split_reference` is PerformSplitII as it ran before home
enquiries were answered in place: every non-winning entry of a splitting
node is hashed and sent through one :func:`exchange_enquire` over the
whole request batch, with the answers scattered back through per-list
boolean masks into int64 id arrays.  :class:`ReferenceSplitPhase` plugs
it into a fit (the hand-off still fires: it is a ScalParC splitting
phase), so a differential test can compare trace events and ledger rows
event for event against the in-place path.
"""

from __future__ import annotations

import numpy as np

from repro.core.splitter import ScalParCSplitPhase, _local_children
from repro.core.phases import PERFORMSPLIT1, PERFORMSPLIT2, timed_phase
from repro.hashing import exchange_enquire


def lookup_reference(table, keys: np.ndarray) -> np.ndarray:
    """``DistributedNodeTable.lookup`` before the in-place home reads:
    every key range-checked, hashed and handed to the paradigm."""
    keys = table._check_keys(keys)
    owner, slot = table._hash(keys)
    out = exchange_enquire(table.comm, owner,
                           slot.astype(np.int32, copy=False),
                           lambda slots: table.local[slots])
    return out.astype(np.int32, copy=False)


def perform_split_reference(comm, lists, table, decisions) -> None:
    """PerformSplitI + the enquire-every-entry PerformSplitII."""
    decisions.validate()

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
        table.update(rids, ids.astype(np.int32))

    with timed_phase(comm, PERFORMSPLIT2):
        new_nodes_per_list: list[np.ndarray] = []
        lookup_masks: list[np.ndarray] = []
        for alist, (entries, ids) in zip(lists, winner_entries):
            new_nodes = np.full(alist.n_local, -1, dtype=np.int64)
            if len(entries):
                new_nodes[entries] = ids
            need = decisions.splitting \
                & (decisions.winner_attr != alist.attr_index)
            new_nodes_per_list.append(new_nodes)
            lookup_masks.append(need[alist.entry_nodes()])

        answers = lookup_reference(table, np.concatenate(
            [alist.rids[mask] for alist, mask in zip(lists, lookup_masks)]
            + [np.empty(0, dtype=np.int64)]
        )).astype(np.int64)
        offset = 0
        for mask, new_nodes in zip(lookup_masks, new_nodes_per_list):
            count = int(mask.sum())
            new_nodes[mask] = answers[offset:offset + count]
            offset += count

        for alist, new_nodes in zip(lists, new_nodes_per_list):
            comm.perf.add_compute("split", alist.n_local)
            alist.reorder(new_nodes, decisions.n_next)
            comm.perf.register_bytes(
                f"attr_list[{alist.spec.name}]", alist.nbytes()
            )


class ReferenceSplitPhase(ScalParCSplitPhase):
    """ScalParC's splitting phase on the reference PerformSplitII."""

    def execute(self, comm, lists, decisions) -> None:
        assert self.table is not None, "setup() must run before execute()"
        perform_split_reference(comm, lists, self.table, decisions)

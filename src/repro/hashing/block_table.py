"""The distributed node table (§3.3.2): a collision-free block hash table.

The node table maps every global record id ``j ∈ [0, N)`` to the tree node
the record belongs to after a split.  ScalParC distributes it with the hash
function

    ``h(j) = (j div ⌈N/p⌉,  j mod ⌈N/p⌉)``

i.e. rank ``j div ⌈N/p⌉`` stores the value at local slot ``j mod ⌈N/p⌉``.
Since record ids are unique, the function is collision-free and each rank
stores exactly its O(N/p) slice — the memory-scalability pillar of the
algorithm.

Updates and enquiries go through the parallel hashing paradigm
(:mod:`repro.hashing.paradigm`); updates can be split into rounds of at
most ``N/p`` entries per rank (:meth:`DistributedNodeTable.update`'s
``blocked=True``), which keeps transient buffers O(N/p) even under the
pathological split skew discussed at the end of §3.3.2.
"""

from __future__ import annotations

import numpy as np

from ..runtime import Communicator
from .paradigm import exchange_enquire, exchange_update

__all__ = ["DistributedNodeTable"]


class DistributedNodeTable:
    """Distributed record-id → node mapping (value dtype int32).

    Parameters
    ----------
    comm:
        Communicator; every rank constructs the table collectively.
    total_keys:
        N, the global number of record ids.
    fill:
        Initial value of every slot (default −1 = "unassigned").
    """

    #: pairs per rank per blocked update round when ``update`` names no
    #: ``max_block``; ``None`` = ⌈N/p⌉.  Never changes a result: tests
    #: lower it so small inputs drive many rounds.
    max_block: int | None = None

    def __init__(self, comm: Communicator, total_keys: int, fill: int = -1):
        if total_keys < 0:
            raise ValueError(f"total_keys must be non-negative, got {total_keys}")
        self.comm = comm
        self.total_keys = int(total_keys)
        self.chunk = -(-self.total_keys // comm.size) if self.total_keys else 1
        start = min(comm.rank * self.chunk, self.total_keys)
        stop = min(start + self.chunk, self.total_keys)
        self.local_start = start
        self.local = np.full(stop - start, fill, dtype=np.int32)
        comm.perf.register_bytes("node_table", self.local.nbytes)

    # -- hash function ------------------------------------------------------

    def _hash(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``h(j)`` as ``(owner, slot)`` from one division; record ids that
        fit travel and divide as int32."""
        keys = np.asarray(keys)
        if self.total_keys <= np.iinfo(np.int32).max:
            keys = keys.astype(np.int32, copy=False)
        return np.divmod(keys, keys.dtype.type(self.chunk))

    def owner_of(self, keys: np.ndarray) -> np.ndarray:
        """Destination rank of each key: ``j div ⌈N/p⌉``."""
        return self._hash(keys)[0]

    def slot_of(self, keys: np.ndarray) -> np.ndarray:
        """Local slot of each key: ``j mod ⌈N/p⌉``."""
        return self._hash(keys)[1]

    def _check_keys(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys)
        if len(keys) and (keys.min() < 0 or keys.max() >= self.total_keys):
            raise IndexError(
                f"record ids must lie in [0, {self.total_keys}); got range "
                f"[{keys.min()}, {keys.max()}]"
            )
        return keys

    # -- collective operations ----------------------------------------------

    def update(self, keys: np.ndarray, values: np.ndarray,
               *, blocked: bool = True,
               max_block: int | None = None) -> int:
        """Collectively write ``table[keys[i]] = values[i]``.

        Every rank must call this (with possibly empty local batches).  With
        ``blocked=True`` (the default, and the paper's choice) no rank sends
        more than ``max_block`` (default :attr:`max_block`, else ⌈N/p⌉)
        pairs per all-to-all round.
        Returns the number of rounds used.
        """
        keys = self._check_keys(keys)
        values = np.asarray(values, dtype=np.int32)
        if len(keys) != len(values):
            raise ValueError("keys and values must be entry-aligned")
        block = (max_block or self.max_block or self.chunk) \
            if blocked else None

        def apply_fn(slots: np.ndarray, vals: np.ndarray) -> None:
            self.local[slots] = vals

        owner, slot = self._hash(keys)
        return exchange_update(
            self.comm, owner, slot.astype(np.int32, copy=False), values,
            apply_fn, max_block=block,
        )

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Collectively read ``table[keys[i]]`` for this rank's keys.

        Returns values aligned with ``keys``.  Every rank must call this
        (possibly with an empty batch).  Keys this rank owns are read in
        place (:meth:`read_home`); only the others go through
        :meth:`enquire`.
        """
        keys = np.asarray(keys)
        values, home = self.read_home(keys)
        if home is None:
            self.enquire(keys[:0], answered=len(keys))
            return values
        away = np.flatnonzero(~home)
        values[away] = self.enquire(keys[away],
                                    answered=len(keys) - len(away))
        return values

    def read_home(self, keys: np.ndarray,
                  ) -> tuple[np.ndarray, np.ndarray | None]:
        """This rank's slice read at every key it owns — no message.

        Returns ``(values, home)``: int32 values aligned with ``keys``
        and the mask of the keys in this rank's block, ``None`` when it
        owns them all.  Values at the other keys are unspecified: the
        caller fills them (from :meth:`enquire`).  A key outside
        ``[0, N)`` is never home.
        """
        keys = np.asarray(keys)
        lo, n_local = self.local_start, len(self.local)
        slots = keys - lo if lo else keys
        if not len(keys) or (keys.min() >= lo and keys.max() < lo + n_local):
            return self.local.take(slots), None
        home = (keys >= lo) & (keys < lo + n_local)
        if not n_local:
            return np.full(len(keys), -1, dtype=np.int32), home
        return self.local.take(slots, mode="clip"), home

    def enquire(self, keys: np.ndarray, answered: int = 0) -> np.ndarray:
        """Collectively read ``table[keys[i]]`` from the keys' owners:
        the paradigm's two all-to-alls (§3.3.1).

        ``answered`` is the number of further requests the caller read
        from its own slice (:meth:`read_home`): they travel nowhere but
        are booked with the enquiry, so the ledger prices the paper's
        enquiry of every requested key.  Every rank must call this.
        """
        keys = self._check_keys(keys)

        def lookup_fn(slots: np.ndarray) -> np.ndarray:
            return self.local[slots]

        owner, slot = self._hash(keys)
        out = exchange_enquire(
            self.comm, owner, slot.astype(np.int32, copy=False), lookup_fn,
            answered=answered)
        return out.astype(np.int32, copy=False)

    # -- checkpoint support ---------------------------------------------------

    def snapshot_state(self) -> dict:
        """This rank's picklable share of the table (checkpoint payload)."""
        return {
            "total_keys": self.total_keys,
            "local_start": self.local_start,
            "local": self.local.copy(),
        }

    @classmethod
    def from_snapshots(cls, comm: Communicator,
                       states: list[dict]) -> "DistributedNodeTable":
        """Rebuild the table collectively from per-rank snapshots.

        ``states`` are snapshots from a previous run, in old-rank order;
        the old world size need not match ``comm.size``.  When a rank's
        new ⌈N/p′⌉ block is covered by a single snapshot (the p == p′
        fast path) only that snapshot is needed; otherwise every rank
        passes all old snapshots and the global array is re-blocked.
        """
        if not states:
            raise ValueError("need at least one table snapshot")
        total = int(states[0]["total_keys"])
        if any(int(s["total_keys"]) != total for s in states):
            raise ValueError("table snapshots disagree on total_keys")
        table = cls(comm, total)
        n_local = len(table.local)
        if n_local == 0:
            return table
        for state in states:
            if int(state["local_start"]) == table.local_start \
                    and len(state["local"]) == n_local:
                table.local[:] = state["local"]
                return table
        covered = np.zeros(n_local, dtype=bool)
        for state in states:
            start = int(state["local_start"])
            values = np.asarray(state["local"], dtype=np.int32)
            lo = max(start, table.local_start)
            hi = min(start + len(values), table.local_start + n_local)
            if hi <= lo:
                continue
            dst = slice(lo - table.local_start, hi - table.local_start)
            table.local[dst] = values[lo - start:hi - start]
            covered[dst] = True
        if not covered.all():
            raise ValueError(
                "table snapshots do not cover this rank's block; pass every "
                "old rank's snapshot when resuming on a different world size"
            )
        return table

    # -- local access (tests / owners) ---------------------------------------

    def local_slice(self) -> np.ndarray:
        """This rank's slice of the table (a view; global ids
        ``local_start + arange(len)``)."""
        return self.local

    def __len__(self) -> int:
        return self.total_keys

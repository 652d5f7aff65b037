"""Distributed attribute lists (the paper's vertical fragmentation, §2/§3).

The training set is fragmented vertically into one list per attribute;
each list entry carries (value, record id, class label).  Horizontally,
every list is block-distributed over the ranks (§3.1) — ⌈N/p⌉ entries per
rank — and this assignment never changes.

On each rank a :class:`LocalAttributeList` keeps its fragment grouped into
contiguous *segments, one per active tree node of the current level*, in
CSR form (``offsets``).  Invariants maintained through every level:

* within a node's segment, continuous lists are in global (value, rid)
  order restricted to this rank — and because splits only ever subset the
  original sorted blocks, concatenating a node's segments in rank order
  always yields the node's entries in global sorted order;
* categorical lists stay in the original record order within segments.

Only the continuous lists are presorted, so on each rank every
categorical list holds the same record ids, labels and segment offsets
at every level, and each level permutes them alike.  They share one
*record block*: the same ``rids``, ``labels`` and ``offsets`` objects
and one :meth:`~LocalAttributeList.entry_nodes` cache, each list owning
only its ``values``.  A continuous list is a block of its own.  Every
builder (:func:`build_local_lists`, :func:`hand_off_lists`,
:func:`restore_local_lists`) makes the sharing; sharing saves work and
memory and never changes a result — a categorical list with private
copies splits the same.

Splitting a level is one stable counting sort by next-level node id per
record block (:func:`regroup_lists`) — entries of nodes that became
leaves are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datagen.schema import AttributeSpec, Dataset
from ..runtime import Communicator
from ..sort import presort_columns
from . import kernels

__all__ = ["LocalAttributeList", "block_leaders", "build_local_lists",
           "hand_off_lists", "regroup_lists", "restore_local_lists",
           "snapshot_lists"]


@dataclass
class LocalAttributeList:
    """One rank's fragment of one attribute list, segmented by active node."""

    spec: AttributeSpec
    attr_index: int
    values: np.ndarray
    rids: np.ndarray
    labels: np.ndarray
    #: CSR segment bounds: segment k = entries [offsets[k], offsets[k+1])
    offsets: np.ndarray
    #: voted strategy only: sorted interior bin edges shared by all
    #: ranks (actual data values drawn from the global sorted order at
    #: presort); None under the exact strategy
    bin_edges: np.ndarray | None = None
    #: voted strategy only: per-entry bin code, maintained through
    #: every reorder; ``code = searchsorted(bin_edges, v, side="right")``
    bin_codes: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.values)
        if len(self.rids) != n or len(self.labels) != n:
            raise ValueError("attribute list arrays must be entry-aligned")
        if self.offsets[0] != 0 or self.offsets[-1] != n:
            raise ValueError("offsets must span exactly the local entries")
        # entry_nodes() cache: a one-slot cell, shared by a record block
        self._nodes: list[np.ndarray | None] = [None]

    @property
    def n_local(self) -> int:
        return len(self.values)

    @property
    def n_segments(self) -> int:
        return len(self.offsets) - 1

    def segment(self, k: int) -> slice:
        """Local entries of active node k."""
        return slice(int(self.offsets[k]), int(self.offsets[k + 1]))

    def entry_nodes(self) -> np.ndarray:
        """Active-node index of every local entry (int64, length n_local).

        Cached between regroups, once per record block — FindSplit asks
        for this array many times per attribute per level and the
        ``np.repeat`` expansion is O(n_local) each time.  The cache is
        read-only; callers needing a private copy must copy explicitly.
        """
        if self._nodes[0] is None:
            nodes = np.repeat(
                np.arange(self.n_segments, dtype=np.int64),
                np.diff(self.offsets),
            )
            nodes.setflags(write=False)
            self._nodes[0] = nodes
        return self._nodes[0]

    def on_block(self, spec: AttributeSpec, attr_index: int,
                 values: np.ndarray) -> "LocalAttributeList":
        """Another attribute's list on this list's record block: the same
        ``rids`` / ``labels`` / ``offsets`` objects and ``entry_nodes``
        cache, its own ``values``."""
        alist = LocalAttributeList(spec=spec, attr_index=attr_index,
                                   values=values, rids=self.rids,
                                   labels=self.labels, offsets=self.offsets)
        alist._nodes = self._nodes
        return alist

    def nbytes(self) -> int:
        """Live bytes of this fragment (for the memory model)."""
        extra = 0
        if self.bin_edges is not None:
            extra += self.bin_edges.nbytes
        if self.bin_codes is not None:
            extra += self.bin_codes.nbytes
        return int(self.values.nbytes + self.rids.nbytes + self.labels.nbytes
                   + self.offsets.nbytes + extra)

    @property
    def n_bins_effective(self) -> int:
        """Number of occupied-able bins (= len(bin_edges) + 1)."""
        if self.bin_edges is None:
            raise ValueError(
                f"attribute {self.spec.name!r} has no bin edges attached"
            )
        return len(self.bin_edges) + 1

    def attach_bins(self, edges: np.ndarray) -> None:
        """Attach voted's bin edges and (re)derive per-entry codes."""
        self.bin_edges = np.asarray(edges, dtype=np.float64)
        self.bin_codes = np.searchsorted(
            self.bin_edges, self.values, side="right"
        ).astype(np.int32)

    def reorder(self, new_nodes: np.ndarray, n_next: int) -> None:
        """Regroup entries by next-level node id; drop entries with id < 0.

        The sort is stable, so within each new segment the previous
        relative order — hence the global sorted order for continuous
        lists — is preserved.  The gather plan comes from
        :func:`repro.core.kernels.stable_regroup`, whose fast path narrows
        the sort key to a radix-sortable width and fuses the drop-filter
        into the gather, so every payload array pays one fancy-index pass.
        The list leaves its record block: the regrouped arrays are its
        own.  :func:`regroup_lists` regroups a block's lists together.
        """
        self._regroup(*self._plan(new_nodes, n_next))

    def _plan(self, new_nodes: np.ndarray, n_next: int) -> tuple:
        """This list's regroup plan and its record block regrouped."""
        if len(new_nodes) != self.n_local:
            raise ValueError("new_nodes must cover every local entry")
        take, offsets = kernels.stable_regroup(new_nodes, n_next)
        return take, self.rids[take], self.labels[take], offsets, [None]

    def _regroup(self, take: np.ndarray, rids: np.ndarray,
                 labels: np.ndarray, offsets: np.ndarray,
                 nodes: list) -> None:
        """Gather the own arrays by ``take``; adopt the regrouped block."""
        self.values = self.values[take]
        if self.bin_codes is not None:
            self.bin_codes = self.bin_codes[take]
        self.rids, self.labels, self.offsets = rids, labels, offsets
        self._nodes = nodes


def block_leaders(lists: list[LocalAttributeList]) -> list[int]:
    """Index of the first list on each list's record block (its own
    index when it leads one): lists holding the very same ``rids``,
    ``labels`` and ``offsets`` objects share a block."""
    first: dict[tuple[int, int, int], int] = {}
    return [first.setdefault(
                (id(alist.rids), id(alist.labels), id(alist.offsets)), i)
            for i, alist in enumerate(lists)]


def regroup_lists(
    comm: Communicator, lists: list[LocalAttributeList],
    new_nodes: list[np.ndarray | None], n_next: int,
) -> None:
    """Regroup a level's lists by next-level node id (PerformSplitII).

    ``new_nodes[i]`` is list ``i``'s next-level node per entry (< 0:
    dropped).  Only a record block's leader (:func:`block_leaders`)
    needs one: one :func:`~repro.core.kernels.stable_regroup` plan per
    block regroups its ``rids`` / ``labels`` / ``offsets`` once, and
    every list of the block gathers its own ``values`` by that plan (a
    follower's entry may be ``None``).  The ledger books each list as if
    it were regrouped on its own: ``split`` compute over its entries and
    its re-registered bytes.
    """
    lead = block_leaders(lists)
    plans: dict[int, tuple] = {}
    for i, alist in enumerate(lists):
        comm.perf.add_compute("split", alist.n_local)
        if lead[i] == i:
            plans[i] = alist._plan(new_nodes[i], n_next)
        alist._regroup(*plans[lead[i]])
        comm.perf.register_bytes(f"attr_list[{alist.spec.name}]",
                                 alist.nbytes())


def snapshot_lists(lists: list[LocalAttributeList],
                   compact: bool = True) -> list[dict]:
    """Picklable resume state of a rank's lists (checkpoint payload), one
    dict per list.

    Values and labels are pure functions of the immutable training set
    (``values == column[rids]``, ``labels == labels[rids]``), so a
    ``compact`` snapshot stores only the permutation/partition — rids
    (narrowed to int32 when they fit) plus the CSR offsets — and the
    restore path re-derives the rest from the dataset.  Pass
    ``compact=False`` when the dataset cannot serve random access by
    record id (e.g. a distributed generate-on-demand source): the
    snapshot then embeds values and labels verbatim.  Every categorical
    state holds the first categorical list's arrays (by the module
    invariant they are every categorical list's), so one pickle of the
    states stores the categorical block once, shared in memory or not.
    """
    states, cat_block = [], None
    for alist in lists:
        block = cat_block
        if block is None or alist.spec.is_continuous:
            rids = alist.rids
            if len(rids) and int(rids.max()) < np.iinfo(np.int32).max:
                rids = rids.astype(np.int32)
            block = {"rids": rids, "offsets": alist.offsets,
                     "labels": alist.labels}
            if not alist.spec.is_continuous:
                cat_block = block
        state = {"attr_index": alist.attr_index, "rids": block["rids"],
                 "offsets": block["offsets"]}
        if not compact:
            state["values"] = alist.values
            state["labels"] = block["labels"]
        if alist.bin_edges is not None:
            # edges are tiny and identical on every rank; codes are a pure
            # function of (edges, values) and are re-derived on restore
            state["bin_edges"] = alist.bin_edges
        states.append(state)
    return states


def build_local_lists(
    comm: Communicator, dataset: Dataset
) -> tuple[list[LocalAttributeList], int]:
    """Build this rank's attribute lists, presorting continuous attributes.

    Each rank takes its ⌈N/p⌉ record block, forms (value, rid, label)
    lists per attribute, and runs the parallel sample sort once over all
    continuous attributes (the Presort phase of Figure 2).  Returns the
    lists and the global record count N.
    """
    n_total = dataset.n_records
    block = dataset.block(comm.rank, comm.size)
    chunk = -(-n_total // comm.size) if n_total else 0
    rid_start = min(comm.rank * chunk, n_total)
    rids = np.arange(rid_start, rid_start + block.n_records, dtype=np.int64)
    labels = block.labels.astype(np.int64)

    # one schedule for every continuous column; a column's data moves when
    # its list is built below, so earlier lists are registered by then
    presorted = presort_columns(
        comm,
        [block.columns[a].astype(np.float64, copy=False)
         for a, spec in enumerate(dataset.schema) if spec.is_continuous],
        labels, rids=rids,
    )
    lists: list[LocalAttributeList] = []
    cat_block: LocalAttributeList | None = None
    for a, spec in enumerate(dataset.schema):
        if spec.is_continuous:
            s_values, s_rids, s_labels = next(presorted)
            alist = LocalAttributeList(
                spec=spec, attr_index=a, values=s_values, rids=s_rids,
                labels=s_labels,
                offsets=np.array([0, len(s_values)], dtype=np.int64))
        else:
            # the categorical lists share the rank's record block
            s_values = block.columns[a].astype(np.int32, copy=True)
            if cat_block is None:
                cat_block = alist = LocalAttributeList(
                    spec=spec, attr_index=a, values=s_values, rids=rids,
                    labels=labels,
                    offsets=np.array([0, len(s_values)], dtype=np.int64))
            else:
                alist = cat_block.on_block(spec, a, s_values)
        comm.perf.register_bytes(f"attr_list[{spec.name}]", alist.nbytes())
        lists.append(alist)
    return lists, n_total


def hand_off_lists(
    comm: Communicator, lists: list[LocalAttributeList], owner: np.ndarray,
    n_total: int,
) -> list[LocalAttributeList]:
    """Move every node's entries to the rank that grows it on its own.

    ``owner[k]`` is the rank that takes segment ``k`` (−1: nobody, its
    entries are dropped).  One ``alltoallv`` carries every attribute, a
    byte block per destination: the (attribute, node) entry counts, each
    attribute's values (a float by its bits) and the first attribute's
    labels as 8-byte words, then each attribute's record ids, 4 bytes
    while the ``n_total`` ids fit — node-major throughout.  The other
    attributes' labels follow from their record ids on arrival.

    By the module invariant a node's segments concatenated in rank order
    are its global order, so the received pieces are laid end to end per
    node in source-rank order — a gather, no merge.  Each list leaves
    ``lists`` as soon as it is packed, so the old fragments are freed
    while the blocks fill.  Returns this rank's lists, one segment per
    node it owns (in segment order), record ids renumbered
    ``0 … n_local − 1``, the categorical ones on one record block.
    """
    size, n_attrs = comm.size, len(lists)
    rid_wire = np.dtype(np.uint32 if n_total <= 2 ** 32 else np.int64)
    specs = [(alist.spec, alist.attr_index) for alist in lists]
    segs = [np.flatnonzero(owner == d) for d in range(size)]
    counts = [np.array([np.diff(alist.offsets)[s] for alist in lists],
                       dtype=np.int64).reshape(n_attrs, len(s))
              for s in segs]
    blocks, at = [], []
    for c in counts:
        n = c.sum(axis=1)
        words = c.size + int(n.sum()) + int(n[0])
        blocks.append(np.empty(8 * words + rid_wire.itemsize * int(n.sum()),
                               dtype=np.uint8))
        blocks[-1][:8 * c.size] = c.view(np.uint8).ravel()
        # write cursors: values, first labels, rids
        at.append([8 * c.size, 8 * (c.size + int(n.sum())), 8 * words])
    for a in range(n_attrs):
        alist, lists[a] = lists[a], None
        for d in range(size):
            idx = _ranges(alist.offsets[segs[d]], counts[d][a])
            parts = [(0, _bits(alist.values[idx])),
                     (2, alist.rids[idx].astype(rid_wire))]
            if a == 0:
                parts.append((1, alist.labels[idx]))
            for slot, arr in parts:
                raw = arr.view(np.uint8)
                blocks[d][at[d][slot]:at[d][slot] + len(raw)] = raw
                at[d][slot] += len(raw)
        comm.perf.release_bytes(f"attr_list[{alist.spec.name}]")
        del alist
    lists.clear()

    m = len(segs[comm.rank])
    pieces: list[list[tuple]] = [[] for _ in range(n_attrs)]
    labels_in = []
    for block in comm.alltoallv(blocks):
        c = block[:8 * n_attrs * m].view(np.int64).reshape(n_attrs, m)
        n = c.sum(axis=1)
        words = block[8 * c.size:].view(np.uint8)
        values = words[:8 * int(n.sum())].view(np.int64)
        labels_in.append(words[8 * int(n.sum()):8 * int(n.sum() + n[0])]
                         .view(np.int64))
        rids = words[8 * int(n.sum() + n[0]):].view(rid_wire)
        ends = np.cumsum(n)
        for a in range(n_attrs):
            cut = slice(int(ends[a] - n[a]), int(ends[a]))
            pieces[a].append((c[a], values[cut], rids[cut]))
    del blocks

    out: list[LocalAttributeList] = []
    by_id = cat_block = None
    for (spec, attr_index), received in zip(specs, pieces):
        # (source, node) runs, laid out node by node in source order
        c = np.stack([piece[0] for piece in received])
        starts = np.cumsum(c) - c.ravel()
        take = _ranges(starts.reshape(size, m).T.ravel(), c.T.ravel())
        values = np.concatenate([piece[1] for piece in received])[take]
        values = values.view(np.float64) if spec.is_continuous \
            else values.astype(np.int32)
        if cat_block is not None and not spec.is_continuous:
            # same records in the same order: the categorical block
            out.append(cat_block.on_block(spec, attr_index, values))
        else:
            rids = np.concatenate([piece[2] for piece in received])[take]
            # every list holds the same record ids: a record's new id is
            # its rank among them (ids are distinct: the sort need not be
            # stable)
            new_ids = np.empty(len(rids), dtype=np.int64)
            new_ids[np.argsort(rids)] = np.arange(len(rids))
            if by_id is None:
                by_id = np.empty(len(rids), dtype=np.int64)
                by_id[new_ids] = np.concatenate(labels_in)[take]
            out.append(LocalAttributeList(
                spec=spec, attr_index=attr_index, values=values,
                rids=new_ids, labels=by_id[new_ids], offsets=np.concatenate(
                    ([0], np.cumsum(c.sum(axis=0))))))
            if not spec.is_continuous:
                cat_block = out[-1]
        comm.perf.register_bytes(f"attr_list[{spec.name}]",
                                 out[-1].nbytes())
    return out


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + n)`` for every ``(s, n)`` pair, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) \
        + np.repeat(starts - (ends - lengths), lengths)


def _bits(values: np.ndarray) -> np.ndarray:
    """A list's values as int64: a float by its bits, a code widened."""
    return values.view(np.int64) if values.dtype == np.float64 \
        else values.astype(np.int64)


def _column_values(dataset: Dataset, attr_index: int, spec: AttributeSpec,
                   rids: np.ndarray) -> np.ndarray:
    """One attribute's values of the records ``rids``, in the list dtype."""
    dtype = np.float64 if spec.is_continuous else np.int32
    return np.asarray(dataset.columns[attr_index])[rids].astype(
        dtype, copy=False
    )


def _hydrate_fragment(
    frag: dict, dataset: Dataset, attr_index: int, spec: AttributeSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, rids, labels) of one snapshot fragment.

    Compact snapshots carry only rids; values and labels are gathered
    from the dataset by record id — bit-identical to the arrays the
    original run held, because both are elementwise reads of the same
    immutable columns.
    """
    rids = np.asarray(frag["rids"]).astype(np.int64, copy=False)
    if "values" in frag:
        return (np.asarray(frag["values"]), rids,
                np.asarray(frag["labels"]).astype(np.int64, copy=False))
    return (_column_values(dataset, attr_index, spec, rids), rids,
            np.asarray(dataset.labels)[rids].astype(np.int64, copy=False))


def _reshard_plan(
    node_offsets: list[np.ndarray], rank: int, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(take, offsets)`` re-blocking one list from its old per-rank
    fragments (their CSR ``node_offsets``, old-rank order) onto the new
    world: ``take`` indexes the fragments concatenated in old-rank order.

    Each node's segments concatenated in old-rank order reconstruct, by
    the sorted-order invariant, the node-major *global* list; this rank
    takes its contiguous ⌈L/p′⌉ chunk of it.  One stable regroup by node
    id of the concatenated fragments gives that order — the stable sort
    keeps old-rank order within each node, exactly matching the per-node
    list rebuild it replaced (a test oracle now).
    """
    m = max(len(offsets) - 1 for offsets in node_offsets)
    all_nodes = np.concatenate([
        np.repeat(np.arange(len(o) - 1, dtype=np.int64), np.diff(o))
        for o in node_offsets
    ])
    take, _global_offsets = kernels.stable_regroup(all_nodes, m)
    total = len(all_nodes)
    chunk = -(-total // size) if total else 0
    lo = min(rank * chunk, total)
    take = take[lo:min(lo + chunk, total)]
    counts = np.bincount(all_nodes[take], minlength=m)
    return take, np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def _reshard_one_attribute(
    spec: AttributeSpec,
    attr_index: int,
    fragments: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    rank: int,
    size: int,
) -> LocalAttributeList:
    """Re-block one attribute's list from old per-rank
    ``(values, rids, labels, offsets)`` fragments onto the new world
    (:func:`_reshard_plan`)."""
    take, offsets = _reshard_plan([frag[3] for frag in fragments],
                                  rank, size)
    values, rids, labels = (
        np.concatenate([frag[i] for frag in fragments])[take]
        for i in range(3))
    return LocalAttributeList(spec=spec, attr_index=attr_index,
                              values=values, rids=rids, labels=labels,
                              offsets=offsets)


def restore_local_lists(
    comm: Communicator,
    dataset: Dataset,
    per_rank_states: list[list[dict]],
) -> list[LocalAttributeList]:
    """Rebuild this rank's attribute lists from checkpoint snapshots.

    ``per_rank_states`` holds every old rank's list snapshots
    (old-rank order; one :func:`snapshot_lists` dict per attribute).
    Compact snapshots are hydrated from ``dataset`` by record id.  When
    the old world size equals ``comm.size`` the rank's own fragments are
    restored verbatim; otherwise each list is re-blocked ⌈L/p′⌉ from the
    reconstructed global order — valid because any contiguous
    re-chunking of the node-major global order preserves the segment
    invariants, so the resumed induction is bit-identical either way.
    The categorical lists are restored onto one record block: the first
    one's rids, labels and offsets, each later one adding its values.
    """
    if not per_rank_states:
        raise ValueError("need at least one rank's list snapshots")
    n_attrs = len(per_rank_states[0])
    if any(len(states) != n_attrs for states in per_rank_states):
        raise ValueError("list snapshots disagree on attribute count")
    schema = dataset.schema
    if len(schema) != n_attrs:
        raise ValueError(
            f"checkpoint has {n_attrs} attribute lists but the dataset "
            f"schema has {len(schema)}"
        )

    same_world = len(per_rank_states) == comm.size
    lists: list[LocalAttributeList] = []
    cat_block = None
    for a, spec in enumerate(schema):
        fragments = [states[a] for states in per_rank_states]
        if any(int(frag["attr_index"]) != a for frag in fragments):
            raise ValueError("list snapshots are not in schema order")
        if cat_block is not None and not spec.is_continuous:
            if "values" not in fragments[0]:
                values = _column_values(dataset, a, spec, cat_block.rids)
            elif same_world:
                values = np.asarray(fragments[comm.rank]["values"])
            else:
                take, _ = _reshard_plan(
                    [np.asarray(frag["offsets"]) for frag in fragments],
                    comm.rank, comm.size)
                values = np.concatenate(
                    [np.asarray(frag["values"]) for frag in fragments]
                )[take]
            alist = cat_block.on_block(spec, a, values)
        elif same_world:
            frag = fragments[comm.rank]
            values, rids, labels = _hydrate_fragment(frag, dataset, a, spec)
            alist = LocalAttributeList(
                spec=spec,
                attr_index=a,
                values=values,
                rids=rids,
                labels=labels,
                offsets=np.asarray(frag["offsets"]),
            )
        else:
            alist = _reshard_one_attribute(
                spec, a,
                [(*_hydrate_fragment(frag, dataset, a, spec),
                  np.asarray(frag["offsets"]))
                 for frag in fragments],
                comm.rank, comm.size,
            )
        if cat_block is None and not spec.is_continuous:
            cat_block = alist
        if "bin_edges" in fragments[0]:
            # edges are replicated, so any old rank's copy serves; codes
            # are re-derived from the hydrated values (bit-identical)
            alist.attach_bins(np.asarray(fragments[0]["bin_edges"]))
        comm.perf.register_bytes(f"attr_list[{spec.name}]", alist.nbytes())
        lists.append(alist)
    return lists

"""The parallel hashing paradigm (§3.3.1): batched construct & enquire.

The paradigm turns many concurrent hash-table operations into bulk
collectives:

* **update**: every rank hashes its (key, value) pairs to a (owner rank,
  local slot) pair, fills one buffer per destination, and a single
  all-to-all personalized communication delivers all updates; owners apply
  them locally.
* **enquire**: ranks send the local slots they need to the owners
  (all-to-all #1); owners look the values up and send them back
  (all-to-all #2); requesters realign the answers with their original key
  order.

With m keys per rank, both run in O(m) time provided m = Ω(p) — the
scalability property ScalParC's splitting phase inherits.

This module provides the *order-preserving machinery* shared by the
collision-free node table and the general chained table: grouping keys by
destination with a stable counting sort, round-splitting updates into
blocks of bounded size (the paper's memory-scalability device, §3.3.2),
and inverse permutations to restore request order.
"""

from __future__ import annotations

import numpy as np

from ..runtime import Communicator, reduction

__all__ = [
    "group_by_destination",
    "exchange_update",
    "exchange_enquire",
]


def group_by_destination(
    dest: np.ndarray, size: int, *arrays: np.ndarray
) -> tuple[list[slice], list[np.ndarray], np.ndarray]:
    """Stable-group entry-aligned arrays by destination rank.

    Returns ``(sections, grouped_arrays, perm)`` where ``grouped_arrays[i]``
    is ``arrays[i][perm]``, ``sections[d]`` slices destination ``d``'s
    entries out of any grouped array, and ``perm`` is the stable
    permutation applied (so ``np.argsort(perm)`` restores request order).

    Implemented as a counting sort on the small integer ``dest`` — O(m + p),
    matching the constant-per-key cost the paradigm's analysis assumes:
    the key is narrowed to int16 so numpy's stable argsort is its radix
    sort, and entries that all go to one destination are grouped already.
    """
    dest = np.asarray(dest)
    counts = np.bincount(dest, minlength=size)
    ends = np.cumsum(counts)
    starts = ends - counts
    sections = [slice(int(starts[d]), int(ends[d])) for d in range(size)]
    if counts.max() == len(dest):
        return sections, [np.asarray(a) for a in arrays], np.arange(len(dest))
    if size <= 1 << 15:
        dest = dest.astype(np.int16)
    perm = np.argsort(dest, kind="stable")
    return sections, [np.asarray(a)[perm] for a in arrays], perm


def _split_home(dest: np.ndarray, comm: Communicator,
                ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Split requests into *home* (``dest == comm.rank``: the owner is the
    asker, nothing moves) and *away*, as ``(home, away)`` index arrays in
    request order.  ``None`` stands for "every request" — the all-home and
    all-away cases pay no index pass."""
    nobody = np.empty(0, dtype=np.intp)
    if comm.size == 1:
        return None, nobody
    is_home = np.asarray(dest) == comm.rank
    n_home = np.count_nonzero(is_home)
    if n_home == len(is_home):
        return None, nobody
    if n_home == 0:
        return nobody, None
    return np.flatnonzero(is_home), np.flatnonzero(~is_home)


def _take(arr: np.ndarray, idx: np.ndarray | None) -> np.ndarray:
    return arr if idx is None else arr[idx]


def exchange_update(
    comm: Communicator,
    dest: np.ndarray,
    slots: np.ndarray,
    values: np.ndarray,
    apply_fn,
    *,
    max_block: int | None = None,
) -> int:
    """Deliver (slot, value) updates to their owner ranks and apply them.

    Updates this rank owns itself are applied straight from the caller's
    arrays; only the others are buffered and travel.

    Parameters
    ----------
    dest, slots, values:
        Entry-aligned: update ``i`` writes ``values[i]`` at local slot
        ``slots[i]`` of rank ``dest[i]``.
    apply_fn:
        ``apply_fn(slots, values)`` called on the owner for each batch, in
        source-rank order (this rank's own batch at its own position).
    max_block:
        If given, no rank handles more than this many updates per
        all-to-all round; ranks with more loop extra rounds (empty buffers
        from finished ranks).  This is §3.3.2's blocking device: it bounds
        the transient buffer memory by ``O(max_block)`` per rank even when
        one rank must send ≫ N/p updates.

    Returns
    -------
    int
        Number of all-to-all rounds performed (≥ 1).
    """
    n = len(slots)
    slots = np.asarray(slots)
    values = np.asarray(values)
    rank = comm.rank
    home, away = _split_home(dest, comm)
    h_slots, h_values = _take(slots, home), _take(values, home)
    n_home = len(h_slots)
    # one (l, v) pair per travelling update, in a single buffer — one
    # communication step per round, exactly as Figure 1(c)'s hash buffers
    pair_dtype = np.promote_types(slots.dtype, values.dtype)
    pairs = np.empty((n - n_home, 2), dtype=pair_dtype)
    pairs[:, 0] = _take(slots, away)
    pairs[:, 1] = _take(values, away)
    sections, (g_pairs,), _ = group_by_destination(
        _take(np.asarray(dest), away), comm.size, pairs)
    comm.perf.add_compute("hash", n)

    if max_block is None or max_block <= 0:
        n_rounds = 1
    else:
        my_rounds = -(-n // max_block) if n else 0
        n_rounds = max(int(comm.allreduce(np.int64(my_rounds), reduction.MAX)), 1)

    # rounds are windows over all n updates in destination order, with the
    # home batch in this rank's own place between its lower and higher
    # neighbours' — so a round never handles more than max_block updates,
    # home ones included.  A window ending at update ``end`` ends at
    # ``h_hi`` in the home batch and at ``hi`` in g_pairs.
    home_at = sections[rank].start
    per_round = -(-n // n_rounds) if n else 0
    lo = h_lo = 0
    for r in range(1, n_rounds + 1):
        end = min(r * per_round, n)
        h_hi = min(max(end - home_at, 0), n_home)
        hi = end - h_hi
        # clip each destination section to this round's [lo, hi) window
        bufs = []
        for d in range(comm.size):
            s = sections[d]
            a = max(s.start, lo)
            b = min(s.stop, hi)
            bufs.append(g_pairs[a:b] if a < b else g_pairs[:0])
        received = comm.alltoallv(bufs)
        for source, batch in enumerate(received):
            if source == rank:
                batch_slots = h_slots[h_lo:h_hi]
                batch_values = h_values[h_lo:h_hi]
            else:
                batch_slots, batch_values = batch[:, 0], batch[:, 1]
            if len(batch_slots):
                apply_fn(batch_slots, batch_values)
                comm.perf.add_compute("table", len(batch_slots))
        lo, h_lo = hi, h_hi
    return n_rounds


def exchange_enquire(
    comm: Communicator,
    dest: np.ndarray,
    slots: np.ndarray,
    lookup_fn,
    *,
    answered: int = 0,
) -> np.ndarray:
    """Fetch values for (dest, slot) requests; answers in request order.

    ``lookup_fn(slots) -> values`` runs on the owner rank for each batch.
    Two all-to-all steps, exactly as Figure 1(d): enquiry buffers out,
    intermediate index buffers looked up, intermediate value buffers
    back, result buffers realigned.  Requests this rank owns itself are
    looked up in place (at its own position in source-rank order) and
    never enter a buffer.  ``answered`` counts further requests of this
    rank's own that the caller already read from its slice: they take no
    part in the exchange, but are booked like the home requests — hashed,
    and looked up at this rank's own position.
    """
    slots = np.asarray(slots)
    n = len(slots)
    rank = comm.rank
    home, away = _split_home(dest, comm)
    sections, (g_slots,), perm = group_by_destination(
        _take(np.asarray(dest), away), comm.size, _take(slots, away))
    comm.perf.add_compute("hash", n + answered)

    enquiry = [g_slots[sections[d]] for d in range(comm.size)]
    received = comm.alltoallv(enquiry)  # intermediate index buffers

    answers = []
    for source, rs in enumerate(received):
        booked = len(rs)
        if source == rank:
            rs = _take(slots, home)
            booked = len(rs) + answered
        out = lookup_fn(rs) if len(rs) else rs[:0]
        if booked:
            comm.perf.add_compute("table", booked)
        answers.append(out)
    h_answers = answers[rank]
    answers[rank] = h_answers[:0]
    result_groups = comm.alltoallv(answers)  # result buffers

    if home is None:  # nothing travelled: already in request order
        return h_answers
    grouped = np.concatenate(result_groups)
    out = np.empty(n, dtype=np.promote_types(h_answers.dtype, grouped.dtype))
    out[home] = h_answers
    out[perm if away is None else away[perm]] = grouped  # undo the grouping
    return out

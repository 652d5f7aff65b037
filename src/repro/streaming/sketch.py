"""Mergeable per-(node, continuous attribute) split sketches for
streaming induction (a categorical attribute is kept as exact per-node
count rows instead; see :mod:`repro.streaming.induction`).

A *sketch* summarizes one tree node's view of one attribute as a padded
``(capacity, 1 + n_classes)`` float64 array:

* column 0 — the attribute value; ``NaN`` marks an empty slot.
  Occupied rows are sorted ascending by value and values are distinct.
* columns 1… — per-class record counts at that value.  Counts are
  integers carried in float64 (exact up to 2**53), so merged counts are
  bit-exact.

The fixed padded shape is what lets a group of nodes' sketches travel as
one ``(n_node, n_attr, capacity, 1+c)`` block, and lets the rank that
scores those nodes fold every rank's block in one :func:`merge_stacks`
pass — the streaming analogue of ScalParC reducing a level's count
matrices to the processor that scores them.

**Losslessness.**  While every (node, attribute) pair holds at most
``capacity`` distinct values, merging is a pure union-with-summed-counts
and the sketch reproduces the exact global value/count table — streamed
splits are then *bit-identical* to batch ScalParC's.  Beyond capacity the
sketch compresses deterministically (equal-mass bins by integer
arithmetic, lowest value kept as each bin's representative), so results
degrade gracefully and identically on every rank and backend.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "build_sketch",
    "build_sketch_stack",
    "empty_sketch",
    "merge_sketches",
    "merge_stacks",
    "sketch_entries",
    "sketch_from_entries",
    "sketch_identity_like",
]


def empty_sketch(capacity: int, n_classes: int) -> np.ndarray:
    """All-empty padded sketch: NaN values, zero counts."""
    out = np.zeros((capacity, 1 + n_classes), dtype=np.float64)
    out[:, 0] = np.nan
    return out


def sketch_entries(sketch: np.ndarray) -> np.ndarray:
    """The occupied rows of a padded sketch (``(k, 1+c)``, k ≤ capacity)."""
    return sketch[np.isfinite(sketch[:, 0])]


def _compress(entries: np.ndarray, capacity: int) -> np.ndarray:
    """Deterministically reduce a sorted ``(k, 1+c)`` table to ≤ capacity
    rows by merging equal-mass bins (integer arithmetic only, so every
    rank compresses identically).  The lowest value of each bin becomes
    its representative; counts are summed, so per-node class totals
    survive compression exactly."""
    if len(entries) <= capacity:
        return entries
    mass = np.rint(entries[:, 1:].sum(axis=1)).astype(np.int64)
    cum = np.concatenate([[0], np.cumsum(mass)[:-1]])
    total = int(mass.sum())
    bins = (cum * capacity) // max(total, 1)
    starts = np.flatnonzero(np.concatenate([[True], bins[1:] != bins[:-1]]))
    merged = np.empty((len(starts), entries.shape[1]), dtype=np.float64)
    merged[:, 0] = entries[starts, 0]
    merged[:, 1:] = np.add.reduceat(entries[:, 1:], starts, axis=0)
    return merged


def _pad(entries: np.ndarray, capacity: int) -> np.ndarray:
    out = np.zeros((capacity, entries.shape[1]), dtype=np.float64)
    out[:, 0] = np.nan
    out[: len(entries)] = entries
    return out


def sketch_from_entries(entries: np.ndarray, capacity: int) -> np.ndarray:
    """Padded sketch from a sorted-distinct ``(k, 1+c)`` entry table
    (compressed first when ``k`` exceeds *capacity*)."""
    return _pad(_compress(entries, capacity), capacity)


def build_sketch(
    values: np.ndarray, labels: np.ndarray, n_classes: int, capacity: int
) -> np.ndarray:
    """Sketch of local records: distinct values with per-class counts."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return empty_sketch(capacity, n_classes)
    uniq, inv = np.unique(values, return_inverse=True)
    counts = np.zeros((len(uniq), n_classes), dtype=np.float64)
    np.add.at(counts, (inv, np.asarray(labels, dtype=np.int64)), 1.0)
    entries = np.concatenate([uniq[:, None], counts], axis=1)
    return sketch_from_entries(entries, capacity)


def _scatter_cells(cell_of: np.ndarray, entries: np.ndarray, n_cells: int,
                   capacity: int, rows: int | None = None) -> np.ndarray:
    """Padded ``(n_cells, rows, 1+c)`` stack from one entry table sorted
    by (cell, value) with distinct values per cell; ``cell_of`` names
    each row's cell.  Cells holding more than *capacity* entries go
    through :func:`_compress` one by one (rare: the lossy regime).
    ``rows`` (default: *capacity*) trims every cell to its first ``rows``
    entries — the transport trim of a sketch block, applied at build."""
    rows = capacity if rows is None else rows
    out = np.zeros((n_cells, rows, entries.shape[1]), dtype=np.float64)
    out[..., 0] = np.nan
    if len(cell_of) == 0:
        return out
    cell_starts = np.flatnonzero(np.concatenate(
        [[True], cell_of[1:] != cell_of[:-1]]))
    sizes = np.diff(np.concatenate([cell_starts, [len(cell_of)]]))
    # position of each distinct value within its cell
    slot = np.arange(len(cell_of)) - np.repeat(cell_starts, sizes)
    fits = np.repeat(sizes <= capacity, sizes) & (slot < rows)
    out[cell_of[fits], slot[fits]] = entries[fits]
    for k in np.flatnonzero(sizes > capacity):
        lo = cell_starts[k]
        kept = _compress(entries[lo:lo + sizes[k]], capacity)[:rows]
        out[cell_of[lo], : len(kept)] = kept
    return out


def build_sketch_stack(
    nodes: np.ndarray, values: np.ndarray, labels: np.ndarray,
    n_nodes: int, n_classes: int, capacity: int, rows: int | None = None,
) -> np.ndarray:
    """One attribute's sketches of ``n_nodes`` nodes in one pass.

    The record-aligned inputs must be sorted by (node, value); row ``k``
    of the ``(n_nodes, rows, 1+c)`` result equals the first ``rows``
    (default: *capacity*) rows of :func:`build_sketch` of node ``k``'s
    records: run-length encode the (node, value) runs, ``bincount`` their
    class counts, scatter.
    """
    values = np.asarray(values, dtype=np.float64)
    new = np.ones(len(values), dtype=bool)
    new[1:] = (nodes[1:] != nodes[:-1]) | (values[1:] != values[:-1])
    starts = np.flatnonzero(new)
    entries = np.empty((len(starts), 1 + n_classes), dtype=np.float64)
    entries[:, 0] = values[starts]
    entries[:, 1:] = np.bincount(
        (np.cumsum(new) - 1) * n_classes + labels,
        minlength=len(starts) * n_classes,
    ).reshape(len(starts), n_classes)
    return _scatter_cells(nodes[starts], entries, n_nodes, capacity, rows)


def merge_sketches(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two padded sketches of one (node, attribute) pair: union of
    values with summed counts, re-compressed if the union overflows."""
    ea, eb = sketch_entries(a), sketch_entries(b)
    both = np.concatenate([ea, eb], axis=0)
    if len(both) == 0:
        return a.copy()
    uniq, inv = np.unique(both[:, 0], return_inverse=True)
    counts = np.zeros((len(uniq), both.shape[1] - 1), dtype=np.float64)
    np.add.at(counts, inv, both[:, 1:])
    entries = np.concatenate([uniq[:, None], counts], axis=1)
    return _pad(_compress(entries, a.shape[0]), a.shape[0])


def merge_stacks(stacks: "list[np.ndarray]") -> np.ndarray:
    """Merge any number of equally shaped ``(..., capacity, 1+c)`` sketch
    stacks at once: every leading-axis cell is one (node, attribute)
    pair and merges independently of every other cell, so merging a
    subset of the cells gives exactly those rows of the full merge —
    lossy cells included.  A single stack comes back as is: a valid
    stack (sorted distinct values within capacity) is its own merge.

    One flat lexsort/reduceat pass merges every cell of every rank's
    stack together (a scorer folds hundreds of (node, attribute) pairs
    per round, so a per-cell Python loop — or a per-rank pairwise chain
    that re-sorts its accumulator p−1 times — would dominate the whole
    epoch); only cells whose union overflows capacity fall back to
    per-cell compression (:func:`_scatter_cells`).  Union-with-summed-
    counts is order-independent, so the n-way result matches the
    pairwise fold exactly whenever no intermediate union overflows (the
    lossless regime the differential tests pin).
    """
    if len(stacks) == 1:
        return stacks[0]
    first = stacks[0]
    capacity, width = first.shape[-2], first.shape[-1]
    flats = [s.reshape(-1, capacity, width) for s in stacks]
    n_cells = flats[0].shape[0]
    both = np.concatenate(flats, axis=1)        # (m, k·cap, w)
    cells = np.broadcast_to(np.arange(n_cells)[:, None],
                            both.shape[:2]).reshape(-1)
    rows = both.reshape(-1, width)
    keep = np.isfinite(rows[:, 0])
    cells, rows = cells[keep], rows[keep]

    order = np.lexsort((rows[:, 0], cells))
    cells, rows = cells[order], rows[order]
    starts = np.flatnonzero(np.concatenate([
        [True],
        (cells[1:] != cells[:-1]) | (rows[1:, 0] != rows[:-1, 0]),
    ])) if len(rows) else np.empty(0, dtype=np.int64)

    merged = np.empty((len(starts), width), dtype=np.float64)
    if len(starts):
        merged[:, 0] = rows[starts, 0]
        merged[:, 1:] = np.add.reduceat(rows[:, 1:], starts, axis=0)
    return _scatter_cells(cells[starts], merged, n_cells,
                          capacity).reshape(first.shape)


def sketch_identity_like(template: np.ndarray) -> np.ndarray:
    """The merge identity: an all-empty stack shaped like ``template``."""
    out = np.zeros_like(template)
    out[..., 0] = np.nan
    return out


"""Split-candidate encoding and the global best-split reduction.

A candidate split of a node is totally ordered by the **canonical key**

    (score, attribute index, threshold / subset code)

— lower is better.  Strictness: within one attribute, candidate
thresholds are distinct; across attributes the index differs; hence no two
distinct candidates compare equal, and "the best split" is unique.  Both
the serial reference and ScalParC pick candidates by this key, which is
what makes their trees identical.

For the parallel reduction (FindSplitII's "overall best splitting criteria
for each node is found using a parallel reduction operation", §4),
candidates are packed as float64 rows ``[score, attr, threshold]`` with
``[inf, inf, inf]`` meaning "no candidate", and reduced elementwise with
the lexicographic :data:`BEST_SPLIT` operator.
"""

from __future__ import annotations

import numpy as np

from ..runtime.reduction import ReduceOp

__all__ = [
    "NO_CANDIDATE",
    "BEST_SPLIT",
    "pack_candidates",
    "candidate_beats",
    "encode_mask",
    "decode_mask",
    "categorical_children_layout",
]

#: row meaning "this rank has no candidate for this node"
NO_CANDIDATE = (float("inf"), float("inf"), float("inf"))


def pack_candidates(m: int) -> np.ndarray:
    """(m, 3) float64 matrix initialized to NO_CANDIDATE rows."""
    out = np.empty((m, 3), dtype=np.float64)
    out[:] = NO_CANDIDATE
    return out


def candidate_beats(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise: does candidate a strictly precede candidate b in the
    canonical order?  Shapes (..., 3)."""
    lt0 = a[..., 0] < b[..., 0]
    eq0 = a[..., 0] == b[..., 0]
    lt1 = a[..., 1] < b[..., 1]
    eq1 = a[..., 1] == b[..., 1]
    lt2 = a[..., 2] < b[..., 2]
    return lt0 | (eq0 & (lt1 | (eq1 & lt2)))


def _best_split_combine(acc: np.ndarray, contrib: np.ndarray) -> np.ndarray:
    take = candidate_beats(contrib, acc)
    return np.where(take[..., None], contrib, acc)


#: lexicographic-minimum reduction over candidate rows; couples the cells
#: of each (score, attr, threshold) row, so fusion must not flatten it
BEST_SPLIT = ReduceOp(
    "best_split",
    _best_split_combine,
    identity_like=lambda t: np.full_like(t, np.inf),
    cellwise=False,
)


def encode_mask(mask: np.ndarray | None) -> float:
    """Pack a ≤52-value boolean subset mask into an exact float64 code.

    Used as the canonical key's third slot for binary-subset categorical
    candidates, so distinct subsets of one attribute stay totally ordered.
    ``None`` — the multiway split, which has no mask — encodes as 0.
    """
    if mask is None:
        return 0.0
    bits = 0
    for i, b in enumerate(np.asarray(mask).tolist()):
        if b:
            bits |= 1 << i
    return float(bits)


def decode_mask(code: float, n_values: int) -> np.ndarray:
    """The boolean subset mask :func:`encode_mask` packed into ``code``."""
    bits = int(code)
    return np.array([(bits >> i) & 1 for i in range(n_values)], dtype=bool)


def categorical_children_layout(
    matrix: np.ndarray, mask: np.ndarray | None
) -> tuple[np.ndarray, int, int]:
    """Deterministic child layout of a categorical split.

    Parameters
    ----------
    matrix:
        The node's global (n_values, c) count matrix.
    mask:
        ``None`` for the multiway (paper-default) split — occurring values
        get children in ascending value order; otherwise the boolean left
        mask of a binary subset split — child 0 = mask values, child 1 =
        the rest.

    Returns
    -------
    (value_to_child, n_children, default_child)
        ``value_to_child[v] == -1`` for values with no training records;
        ``default_child`` is the child with the most records (ties → lower
        child index) and receives unseen values at prediction time.
    """
    occupancy = matrix.sum(axis=1)
    occurring = occupancy > 0
    value_to_child = np.full(matrix.shape[0], -1, dtype=np.int32)
    if mask is None:
        value_to_child[occurring] = np.arange(int(occurring.sum()),
                                              dtype=np.int32)
        n_children = int(occurring.sum())
    else:
        mask = np.asarray(mask, dtype=bool)
        value_to_child[occurring & mask] = 0
        value_to_child[occurring & ~mask] = 1
        n_children = 2
    child_sizes = np.zeros(max(n_children, 1), dtype=np.int64)
    np.add.at(child_sizes, value_to_child[occurring], occupancy[occurring])
    return value_to_child, n_children, int(np.argmax(child_sizes))

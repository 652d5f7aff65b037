"""Parallel sorting substrate: sample sort + parallel shift (Presort).

ScalParC's presort phase — "the scalable parallel sample sort algorithm
followed by a parallel shift operation" (§4) — lives here, together with
the composite (value, record-id) total order the whole pipeline relies on.
"""

from .keys import count_below, is_sorted_pairs, lexsort_values_rids
from .sample_sort import (
    choose_splitters,
    parallel_sample_sort,
    presort_columns,
    sample_positions,
    splitter_cuts,
)
from .shift import (
    block_bounds,
    block_owner_of,
    redistribute_blocks,
    shift_to_blocks,
)

__all__ = [
    "block_bounds",
    "block_owner_of",
    "choose_splitters",
    "count_below",
    "is_sorted_pairs",
    "lexsort_values_rids",
    "parallel_sample_sort",
    "presort_columns",
    "redistribute_blocks",
    "sample_positions",
    "shift_to_blocks",
    "splitter_cuts",
]

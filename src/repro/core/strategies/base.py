"""The split-strategy contract: pluggable FindSplit implementations.

ScalParC's split determination tangles three separable concerns:

1. **local statistics** — what each rank computes per attribute from its
   list fragment (count matrices at fragment starts, bin-count cubes,
   attribute votes, …);
2. **the collective plan** — which collectives globalize those
   statistics, with what operator, dtype, layout and root (what rides
   the fused batch);
3. **candidate scoring** — turning globalized statistics into the
   per-node candidate rows the BEST_SPLIT reduction folds.

A :class:`SplitStrategy` owns all three for one mode.  The induction
driver stays strategy-agnostic: it calls :meth:`prepare` once inside the
Presort phase, :meth:`level_candidates` once per level, and
:meth:`global_best` for the final fold; everything else — how many
collectives, which phase tags they carry, how approximate the candidate
set is — belongs to the strategy.

Strategies are stateless by design: every distribution-dependent artifact
(bin edges, bin codes) lives on the :class:`LocalAttributeList` fragments
so the level checkpointer snapshots it for free and a resumed run needs
no strategy-side rehydration.
"""

from __future__ import annotations

import numpy as np

from ...runtime import Communicator
from ..attribute_lists import LocalAttributeList
from ..config import InductionConfig
from ..findsplit import global_best_splits

__all__ = ["SplitStrategy", "balanced_coordinator_of", "categorical_ordinals"]


def balanced_coordinator_of(cat_ordinal: int, size: int) -> int:
    """Coordinator rank for the ``cat_ordinal``-th *categorical* attribute.

    The legacy mapping (``attr_index % size``) round-robins over the raw
    schema position, which collides for narrow schemas — e.g. categorical
    attributes at indices 1 and 3 with two ranks both land on rank 1 and
    rank 0 coordinates nothing.  Round-robining over the ordinal among
    categorical attributes spreads the scoring load over
    ``min(n_cat_attrs, size)`` distinct ranks.  Only the voted strategy
    uses this; exact keeps the legacy mapping
    (:func:`repro.core.findsplit.coordinator_of`) so its trace digests
    stay bit-identical to the pre-strategy schedule.
    """
    return cat_ordinal % size


def categorical_ordinals(lists: list[LocalAttributeList]) -> dict[int, int]:
    """attr_index -> ordinal among the schema's categorical attributes."""
    out: dict[int, int] = {}
    for alist in lists:
        if not alist.spec.is_continuous:
            out[alist.attr_index] = len(out)
    return out


class SplitStrategy:
    """Interface every FindSplit mode implements (see module docstring).

    Subclasses must set :attr:`name` (the ``InductionConfig.split_mode``
    value they serve) and implement :meth:`level_candidates`; the
    lifecycle hooks default to no-ops / the shared implementations.
    """

    #: the ``split_mode`` string this strategy implements
    name: str = "?"
    #: a node's split is a function of that node's records alone, so its
    #: subtree grows the same on any one rank holding them (ScalParC's
    #: hand-off relies on it)
    node_local: bool = True

    def prepare(
        self,
        comm: Communicator,
        lists: list[LocalAttributeList],
        config: InductionConfig,
        n_classes: int,
        n_total: int,
    ) -> None:
        """One-time collective setup inside the Presort phase (e.g.
        voted's bin edges, drawn from the global sorted order).  Not
        called on checkpoint resume — anything computed here must live on
        the lists so the checkpointer carries it across."""

    def level_candidates(
        self,
        comm: Communicator,
        lists: list[LocalAttributeList],
        totals: np.ndarray,
        candidate_nodes: np.ndarray,
        config: InductionConfig,
    ) -> tuple[np.ndarray, dict[int, dict[int, tuple]]]:
        """One level's split determination: local statistics, the
        collective plan, and scoring, producing ``(local_best,
        cat_state)`` — this rank's folded (n_nodes, 3) candidate rows and
        the per-attribute categorical coordinator state keyed
        ``attr_index -> node -> (count matrix, subset mask)``."""
        raise NotImplementedError

    def global_best(
        self, comm: Communicator, local_best: np.ndarray,
        config: InductionConfig,
    ) -> np.ndarray:
        """Fold every rank's candidate rows with BEST_SPLIT (shared by
        all modes — the winner lattice is strategy-independent)."""
        return global_best_splits(comm, local_best)

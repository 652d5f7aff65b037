"""The exact split strategy: ScalParC's exscan formulation, verbatim.

A behavior-preserving port of the pre-strategy FindSplit schedule.  The
kernels stay in :mod:`repro.core.findsplit` (they are the paper's §3.2/§4
machinery and the unit suite exercises them directly); this class only
hosts the orchestration the induction driver used to inline: one
deferred batch carrying all attributes' FindSplitI collectives — ≤ 3
rendezvous per level plus BEST_SPLIT.

The schedule — and the legacy ``attr_index % size`` coordinator mapping
(:func:`repro.core.findsplit.coordinator_of`) — is kept bit-identical to
the pre-refactor code: same collectives in the same order with the same
payloads, so golden trees *and* cross-backend trace digests are
unchanged.
"""

from __future__ import annotations

from ..findsplit import level_candidates
from .base import SplitStrategy

__all__ = ["ExactSplitStrategy"]


class ExactSplitStrategy(SplitStrategy):
    """The paper's exact split determination (default mode)."""

    name = "exact"

    def level_candidates(self, comm, lists, totals, candidate_nodes, config):
        return level_candidates(comm, lists, totals, candidate_nodes, config)

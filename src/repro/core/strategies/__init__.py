"""Pluggable FindSplit strategies (``InductionConfig.split_mode``).

=========== =============================================================
mode        split determination
=========== =============================================================
exact       the paper's exscan formulation — bit-identical to the serial
            reference, the default
voted       continuous attributes pre-binned at presort, plus PV-Tree
            per-node attribute voting — only the elected attributes'
            (node, bin, class) cubes are globalized (the
            communication-efficient mode)
=========== =============================================================

See :mod:`repro.core.strategies.base` for the contract.
"""

from __future__ import annotations

from ..config import InductionConfig
from .base import SplitStrategy, balanced_coordinator_of, categorical_ordinals
from .exact import ExactSplitStrategy
from .voted import VotedSplitStrategy

__all__ = [
    "SplitStrategy",
    "ExactSplitStrategy",
    "VotedSplitStrategy",
    "STRATEGIES",
    "make_strategy",
    "balanced_coordinator_of",
    "categorical_ordinals",
]

STRATEGIES: dict[str, type[SplitStrategy]] = {
    cls.name: cls for cls in (ExactSplitStrategy, VotedSplitStrategy)
}


def make_strategy(config: InductionConfig) -> SplitStrategy:
    """Instantiate the config's ``split_mode`` strategy (strategies are
    stateless, so a fresh instance per fit costs nothing)."""
    return STRATEGIES[config.split_mode]()

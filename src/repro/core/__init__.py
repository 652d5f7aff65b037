"""ScalParC core: the paper's scalable parallel classification algorithm.

Submodules map one-to-one onto the paper's structure:

* :mod:`~repro.core.criteria` — gini / entropy splitting indices (§2);
* :mod:`~repro.core.splits` — canonical candidate ordering + the parallel
  BEST_SPLIT reduction (§4, FindSplitII);
* :mod:`~repro.core.attribute_lists` — distributed, per-node-segmented
  attribute lists (§2/§3.1);
* :mod:`~repro.core.findsplit` — FindSplitI/II (§3.2, §4);
* :mod:`~repro.core.strategies` — pluggable split strategies: the exact
  exscan schedule plus the voted approximation (beyond the paper);
* :mod:`~repro.core.splitter` — PerformSplitI/II over the distributed node
  table (§3.3);
* :mod:`~repro.core.frontier` — Figure 2's level loop and the
  tree-shaping rules, shared by every level-synchronous inducer;
* :mod:`~repro.core.induction` — ScalParC's side of that loop: Presort,
  per-level statistics, record partitioning, checkpoint cuts;
* :mod:`~repro.core.classifier` — the :class:`ScalParC` facade.
"""

from .attribute_lists import LocalAttributeList, build_local_lists
from .classifier import FitResult, ScalParC, fit_scalparc
from .config import InductionConfig
from .criteria import (
    CRITERIA,
    ENTROPY,
    GINI,
    best_binary_subset,
    best_categorical_split,
    impurity,
    split_score_from_left,
    split_score_multiway,
)
from .induction import induce_worker
from .splits import (
    BEST_SPLIT,
    NO_CANDIDATE,
    candidate_beats,
    categorical_children_layout,
    encode_mask,
    pack_candidates,
)
from .splitter import LevelDecisions, perform_split
from .strategies import SplitStrategy, make_strategy

__all__ = [
    "BEST_SPLIT",
    "CRITERIA",
    "ENTROPY",
    "FitResult",
    "GINI",
    "InductionConfig",
    "LevelDecisions",
    "LocalAttributeList",
    "NO_CANDIDATE",
    "ScalParC",
    "SplitStrategy",
    "best_binary_subset",
    "best_categorical_split",
    "build_local_lists",
    "candidate_beats",
    "categorical_children_layout",
    "encode_mask",
    "fit_scalparc",
    "impurity",
    "induce_worker",
    "make_strategy",
    "pack_candidates",
    "perform_split",
    "split_score_from_left",
    "split_score_multiway",
]

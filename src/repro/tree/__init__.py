"""Decision-tree model, prediction, compilation, statistics, export and
pruning."""

from .compile import CompiledTree, compile_tree
from .export import from_dict, to_dict, to_dot, to_text
from .model import (
    CategoricalSplit,
    ContinuousSplit,
    DecisionTree,
    Leaf,
    TreeNode,
)
from .importance import feature_importances
from .predict import predict_columns, predict_proba_columns
from .pruning import prune_mdl, prune_pessimistic
from .rules import Condition, Rule, extract_rules, rules_to_text
from .stats import TreeSummary, accuracy, confusion_matrix, summarize

__all__ = [
    "CategoricalSplit",
    "CompiledTree",
    "Condition",
    "ContinuousSplit",
    "DecisionTree",
    "Leaf",
    "TreeNode",
    "TreeSummary",
    "accuracy",
    "compile_tree",
    "confusion_matrix",
    "feature_importances",
    "from_dict",
    "predict_columns",
    "predict_proba_columns",
    "prune_mdl",
    "Rule",
    "extract_rules",
    "rules_to_text",
    "prune_pessimistic",
    "summarize",
    "to_dict",
    "to_dot",
    "to_text",
]

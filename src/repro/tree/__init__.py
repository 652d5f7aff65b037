"""Decision trees as breadth-first column tables: the model, its
prediction kernel, statistics, export, rules and pruning."""

from .compile import CompiledTree, compile_tree
from .export import from_dict, to_dict, to_text
from .model import DecisionTree
from .importance import feature_importances
from .pruning import prune_pessimistic
from .rules import Condition, Rule, extract_rules, rules_to_text
from .stats import TreeSummary, accuracy, confusion_matrix, summarize

__all__ = [
    "CompiledTree",
    "Condition",
    "DecisionTree",
    "TreeSummary",
    "accuracy",
    "compile_tree",
    "confusion_matrix",
    "feature_importances",
    "from_dict",
    "Rule",
    "extract_rules",
    "rules_to_text",
    "prune_pessimistic",
    "summarize",
    "to_dict",
    "to_text",
]

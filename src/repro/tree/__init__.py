"""Decision trees as breadth-first column tables: the model, its
prediction kernel, statistics, export, rules and pruning.

Names load on first use (PEP 562), so reading a model file does not
import the impurity criteria :func:`feature_importances` needs."""

from .._lazy import lazy_exports

_EXPORTS = {
    "CompiledTree": "compile",
    "compile_tree": "compile",
    "from_dict": "export",
    "from_npz": "export",
    "to_dict": "export",
    "to_npz": "export",
    "to_text": "export",
    "DecisionTree": "model",
    "feature_importances": "importance",
    "prune_pessimistic": "pruning",
    "Condition": "rules",
    "Rule": "rules",
    "extract_rules": "rules",
    "rules_to_text": "rules",
    "TreeSummary": "stats",
    "accuracy": "stats",
    "confusion_matrix": "stats",
    "summarize": "stats",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

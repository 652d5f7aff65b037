"""Synthetic workload generation (the paper's training sets).

The IBM Quest / Agrawal et al. generator with predicate functions F1–F10 —
"a scheme similar to that used in SPRINT" (§5) — plus random datasets for
property-based testing and npz/csv persistence.

Names load on first use (PEP 562): a model file needs :class:`Schema`,
not the generators.
"""

from .._lazy import lazy_exports

_MODULES = {
    "counter_rng": ("counter_integers", "counter_uniform", "stream_key"),
    "distributed_quest": ("DistributedQuestSource", "quest_block_columns"),
    "io": ("load_csv", "load_npz", "save_csv", "save_npz"),
    "quest": ("FUNCTION_NAMES", "PAPER_ATTRIBUTES", "QUEST_SCHEMA",
              "generate_quest", "paper_dataset", "quest_columns",
              "quest_labels"),
    "random_data": ("make_dataset", "random_dataset", "random_schema"),
    "schema": ("CATEGORICAL", "CONTINUOUS", "AttributeSpec", "Dataset",
               "NaNTrainingValueError", "Schema", "check_training_values"),
}
_EXPORTS = {name: module for module, names in _MODULES.items()
            for name in names}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

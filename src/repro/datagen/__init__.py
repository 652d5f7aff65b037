"""Synthetic workload generation (the paper's training sets).

The IBM Quest / Agrawal et al. generator with predicate functions F1–F10 —
"a scheme similar to that used in SPRINT" (§5) — plus random datasets for
property-based testing and npz/csv persistence.
"""

from .counter_rng import counter_integers, counter_uniform, stream_key
from .distributed_quest import DistributedQuestSource, quest_block_columns
from .io import load_csv, load_npz, save_csv, save_npz
from .quest import (
    FUNCTION_NAMES,
    PAPER_ATTRIBUTES,
    QUEST_SCHEMA,
    generate_quest,
    paper_dataset,
    quest_columns,
    quest_labels,
)
from .random_data import make_dataset, random_dataset, random_schema
from .schema import (
    CATEGORICAL,
    CONTINUOUS,
    AttributeSpec,
    Dataset,
    NaNTrainingValueError,
    Schema,
    check_training_values,
)

__all__ = [
    "AttributeSpec",
    "CATEGORICAL",
    "CONTINUOUS",
    "Dataset",
    "DistributedQuestSource",
    "FUNCTION_NAMES",
    "NaNTrainingValueError",
    "PAPER_ATTRIBUTES",
    "QUEST_SCHEMA",
    "Schema",
    "check_training_values",
    "generate_quest",
    "load_csv",
    "load_npz",
    "make_dataset",
    "paper_dataset",
    "counter_integers",
    "counter_uniform",
    "quest_block_columns",
    "quest_columns",
    "quest_labels",
    "stream_key",
    "random_dataset",
    "random_schema",
    "save_csv",
    "save_npz",
]

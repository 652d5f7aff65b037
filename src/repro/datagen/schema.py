"""Dataset schema: typed attributes + labeled records.

The classification problem (paper §1): records with continuous and
categorical attributes plus one categorical *classifying attribute*.
:class:`Dataset` is the in-memory training-set representation shared by the
generator, the serial baselines, and the parallel classifier (which block-
distributes its columns across ranks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["AttributeSpec", "Schema", "Dataset", "CONTINUOUS", "CATEGORICAL",
           "NaNTrainingValueError", "check_training_values"]

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


class NaNTrainingValueError(ValueError):
    """A continuous training column holds NaN."""


def check_training_values(dataset: "Dataset") -> None:
    """Refuse a training set whose continuous columns hold NaN.

    A NaN has no place in the (value, record id) order every split
    threshold is drawn from — it compares false with everything — so the
    parallel presort and the serial oracle would order it differently and
    grow different trees.  ±inf are ordinary ordered values and pass.
    Raises :class:`NaNTrainingValueError` naming the first such attribute
    and its NaN count.  A source without materialized columns is not
    checked.
    """
    columns = getattr(dataset, "columns", None)
    if columns is None:
        return
    for spec, col in zip(dataset.schema, columns):
        if spec.is_continuous:
            n_nan = int(np.count_nonzero(np.isnan(col)))
            if n_nan:
                raise NaNTrainingValueError(
                    f"continuous attribute {spec.name!r} holds {n_nan} NaN "
                    f"value(s); drop or impute those records before "
                    f"training (±inf are accepted)")


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute of the training set.

    Continuous attributes have a totally ordered numeric domain; categorical
    attributes take integer codes in ``[0, n_values)``.
    """

    name: str
    kind: str
    n_values: int = 0  # categorical only

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.kind == CATEGORICAL and self.n_values <= 0:
            raise ValueError(
                f"categorical attribute {self.name!r} needs n_values > 0"
            )

    @property
    def is_continuous(self) -> bool:
        return self.kind == CONTINUOUS


@dataclass(frozen=True)
class Schema:
    """Ordered attribute list plus the class-label arity."""

    attributes: tuple[AttributeSpec, ...]
    n_classes: int = 2

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("need at least 2 class labels")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in {names}")

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[AttributeSpec]:
        return iter(self.attributes)

    def __getitem__(self, i: int) -> AttributeSpec:
        return self.attributes[i]

    def index_of(self, name: str) -> int:
        """Position of the attribute with the given name."""
        for i, a in enumerate(self.attributes):
            if a.name == name:
                return i
        raise KeyError(name)

    @property
    def continuous_indices(self) -> list[int]:
        return [i for i, a in enumerate(self.attributes) if a.is_continuous]

    @property
    def categorical_indices(self) -> list[int]:
        return [i for i, a in enumerate(self.attributes) if not a.is_continuous]

    def select(self, names: Sequence[str]) -> "Schema":
        """Schema restricted to the named attributes, in the given order."""
        return Schema(
            attributes=tuple(self.attributes[self.index_of(n)] for n in names),
            n_classes=self.n_classes,
        )


@dataclass
class Dataset:
    """A labeled training (or test) set in column-major layout.

    ``columns[i]`` holds attribute i for all records — float64 for
    continuous, int32 codes for categorical.  ``labels`` holds class codes
    in ``[0, schema.n_classes)``.  Record ids are implicit: record j is row
    j of every column.
    """

    schema: Schema
    columns: list[np.ndarray]
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        if len(self.columns) != len(self.schema):
            raise ValueError(
                f"{len(self.columns)} columns for {len(self.schema)} attributes"
            )
        n = len(self.labels)
        for spec, col in zip(self.schema, self.columns):
            if len(col) != n:
                raise ValueError(f"column {spec.name!r} length {len(col)} != {n}")
            if not spec.is_continuous and len(col) and (
                col.min() < 0 or col.max() >= spec.n_values
            ):
                raise ValueError(
                    f"categorical column {spec.name!r} outside "
                    f"[0, {spec.n_values})"
                )
        if n and (self.labels.min() < 0
                  or self.labels.max() >= self.schema.n_classes):
            raise ValueError("labels outside [0, n_classes)")

    @property
    def n_records(self) -> int:
        return len(self.labels)

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    def take(self, idx: np.ndarray) -> "Dataset":
        """Row-subset dataset (fancy indexing; copies)."""
        return Dataset(
            schema=self.schema,
            columns=[c[idx] for c in self.columns],
            labels=self.labels[idx],
            name=self.name,
        )

    def block(self, rank: int, size: int) -> "Dataset":
        """Rank ``rank``'s ⌈N/p⌉ block of records (the initial horizontal
        fragmentation of §3.1)."""
        chunk = -(-self.n_records // size) if self.n_records else 0
        return self.take(np.arange(min(rank * chunk, self.n_records),
                                   min((rank + 1) * chunk, self.n_records)))

    def split(self, train_fraction: float, rng: np.random.Generator
              ) -> tuple["Dataset", "Dataset"]:
        """Random train/test split."""
        if not 0 < train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")
        perm = rng.permutation(self.n_records)
        cut = int(self.n_records * train_fraction)
        return self.take(perm[:cut]), self.take(perm[cut:])

    def class_counts(self) -> np.ndarray:
        """Records per class label."""
        return np.bincount(self.labels, minlength=self.schema.n_classes)

    def features_matrix(self) -> np.ndarray:
        """(n_records, n_attributes) float64 matrix (categorical as codes);
        convenience for vectorized prediction."""
        return np.column_stack([c.astype(np.float64) for c in self.columns]) \
            if self.columns else np.empty((self.n_records, 0))

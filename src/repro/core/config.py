"""Induction configuration shared by ScalParC and the baselines.

Every knob is honored identically by the parallel classifier and the
serial golden reference, so any configuration can be cross-checked for
exact tree equality.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..datagen.schema import Schema
from ..runtime.envutil import env_choice, env_float, env_int
from ..runtime.tracing.events import payload_digest
from .criteria import CRITERIA, GINI

__all__ = ["InductionConfig", "SPLIT_MODES", "SPLIT_MODE_ENV",
           "STREAM_CHUNK_ENV", "SKETCH_SIZE_ENV",
           "STREAM_GROW_ENV", "STREAM_REOPEN_ENV", "schema_fingerprint"]

#: recognized FindSplit strategies (see :mod:`repro.core.strategies`)
SPLIT_MODES = ("exact", "voted")

#: environment variable selecting the split strategy when
#: ``InductionConfig.split_mode`` is None (mirrors ``REPRO_SPMD_BACKEND``)
SPLIT_MODE_ENV = "REPRO_SPMD_SPLIT_MODE"

#: environment variables backing the streaming-induction knobs when the
#: corresponding ``InductionConfig`` field is None (same precedence
#: pattern as ``REPRO_SPMD_BACKEND`` / ``REPRO_SPMD_SPLIT_MODE``)
STREAM_CHUNK_ENV = "REPRO_STREAM_CHUNK_RECORDS"
SKETCH_SIZE_ENV = "REPRO_STREAM_SKETCH_SIZE"
STREAM_GROW_ENV = "REPRO_STREAM_GROW_RECORDS"
STREAM_REOPEN_ENV = "REPRO_STREAM_REOPEN_DELTA"


def schema_fingerprint(schema: Schema) -> str:
    """Content digest of the tree-shaping dataset shape (same digest
    family as the collective tracer, so it is stable across processes)."""
    return payload_digest([
        int(schema.n_classes),
        [(spec.name, bool(spec.is_continuous), int(spec.n_values))
         for spec in schema],
    ])


@dataclass(frozen=True)
class InductionConfig:
    """Tree-induction parameters.

    Attributes
    ----------
    max_depth:
        Nodes at this depth become leaves (root = 0); ``None`` = unlimited
        (induction stops at purity, like the paper's runs).
    min_split_records:
        Nodes with fewer records become leaves.
    min_improvement:
        Required impurity decrease (parent impurity − split score) of the
        best candidate; candidates below the bar terminate the node.
    criterion:
        ``"gini"`` (the paper's index) or ``"entropy"`` (extension).
    categorical_binary_subsets:
        False (paper default): one child per occurring categorical value.
        True (footnote 1 extension): binary subset splits.
    subset_exhaustive_limit:
        With subset splits, values-with-records threshold up to which the
        subset search is exhaustive rather than greedy.
    blocked_updates:
        Split node-table update rounds into blocks of ≤ ⌈N/p⌉ pairs per
        rank (§3.3.2's memory-scalability device).  Parallel only.
    max_update_block:
        Override the block size (entries per rank per round).
    split_mode:
        FindSplit strategy (see :mod:`repro.core.strategies`):
        ``"exact"`` (the paper's exscan formulation, bit-identical to the
        serial reference), ``"voted"`` (continuous attributes pre-binned at
        presort, plus PV-Tree local top-k attribute voting so only the
        elected attributes' per-(node, bin, class) count cubes are
        globalized — the communication-efficient mode), or ``None`` to
        defer to the ``REPRO_SPMD_SPLIT_MODE`` environment variable
        (default exact).  Exact never changes the tree; voted is an
        approximation and *does* shape it, so the resolved mode joins the
        checkpoint compatibility fingerprint.
    n_bins:
        Voted mode: target number of bins per continuous attribute (bin
        edges are drawn from the globally sorted order at presort;
        duplicate edges collapse, so the effective bin count can be
        lower).  ``n_bins >= n_distinct`` with every attribute elected
        reproduces exact trees bit-identically.
    vote_top_k:
        Voted mode: number of attributes each rank votes for per node,
        and the number of globally elected attributes whose statistics
        are globalized (PV-Tree's k).
    backend:
        SPMD execution engine for the parallel run: ``"thread"``,
        ``"process"``, ``"tcp"``, or ``None`` to
        defer to the ``REPRO_SPMD_BACKEND`` environment variable
        (default thread).  The induced tree is backend-independent.
        Parallel only.
    checkpoint:
        Level-boundary checkpointing (see
        :mod:`repro.runtime.checkpoint`): a
        :class:`~repro.runtime.checkpoint.CheckpointConfig`, a bare
        directory path, or ``None`` to defer to the ``checkpoint=``
        argument of :meth:`ScalParC.fit` and then the
        ``REPRO_SPMD_CHECKPOINT`` environment variable.  Never changes
        the induced tree.  Parallel only.
    stream_chunk_records:
        Streaming induction (see :mod:`repro.streaming`): global records
        ingested per epoch.  ``None`` defers to
        ``REPRO_STREAM_CHUNK_RECORDS`` (default 4096).
    sketch_size:
        Streaming induction: capacity (distinct-value slots) of each
        per-(node, attribute) quantile sketch.  The sketch is *lossless*
        — and the streamed tree bit-identical to batch ScalParC on the
        same prefix — whenever every (node, attribute) pair sees at most
        this many distinct values; beyond that it compresses
        deterministically and splits become approximate.  ``None``
        defers to ``REPRO_STREAM_SKETCH_SIZE`` (default 256).
    stream_grow_records:
        Streaming induction: minimum *global* record mass a frontier
        node's sketch must have seen before it may split mid-stream.
        ``0`` (the default) disables eager growth entirely — the tree
        grows only at end-of-stream finalize, which is the mode that
        reproduces batch ScalParC exactly.  ``None`` defers to
        ``REPRO_STREAM_GROW_RECORDS`` (default 0).
    stream_reopen_delta:
        Streaming induction: reopen a closed leaf when the
        total-variation distance between its class distribution at close
        time and its current distribution exceeds this threshold (only
        meaningful with eager growth, where leaves can close
        mid-stream).  ``None`` defers to ``REPRO_STREAM_REOPEN_DELTA``
        (default 0.25).
    """

    max_depth: int | None = None
    min_split_records: int = 2
    min_improvement: float = 0.0
    criterion: str = GINI
    categorical_binary_subsets: bool = False
    subset_exhaustive_limit: int = 12
    blocked_updates: bool = True
    max_update_block: int | None = None
    split_mode: str | None = None
    n_bins: int = 32
    vote_top_k: int = 2
    backend: str | None = None
    checkpoint: object | None = None
    stream_chunk_records: int | None = None
    sketch_size: int | None = None
    stream_grow_records: int | None = None
    stream_reopen_delta: float | None = None

    def resolved_split_mode(self) -> str:
        """The effective FindSplit strategy name: ``split_mode`` when set,
        else ``REPRO_SPMD_SPLIT_MODE``, else ``"exact"`` (the same
        precedence ``backend`` / ``REPRO_SPMD_BACKEND`` uses)."""
        if self.split_mode is not None:
            return self.split_mode      # validated in __post_init__
        return env_choice(SPLIT_MODE_ENV, SPLIT_MODES, "exact")

    def resolved_stream_chunk_records(self) -> int:
        """The effective per-epoch global chunk size: the field when
        set, else ``REPRO_STREAM_CHUNK_RECORDS``, else 4096."""
        chunk = self.stream_chunk_records
        if chunk is None:
            chunk = env_int(STREAM_CHUNK_ENV, 4096)
        if chunk < 1:
            raise ValueError(
                f"stream chunk records must be >= 1, got {chunk}")
        return chunk

    def resolved_sketch_size(self) -> int:
        """The effective per-(node, attribute) sketch capacity: the
        field when set, else ``REPRO_STREAM_SKETCH_SIZE``, else 256."""
        size = self.sketch_size
        if size is None:
            size = env_int(SKETCH_SIZE_ENV, 256)
        if size < 8:
            raise ValueError(f"sketch size must be >= 8, got {size}")
        return size

    def resolved_stream_grow_records(self) -> int:
        """The effective eager-growth mass threshold: the field when
        set, else ``REPRO_STREAM_GROW_RECORDS``, else 0 (finalize-only
        growth)."""
        grow = self.stream_grow_records
        if grow is None:
            grow = env_int(STREAM_GROW_ENV, 0)
        if grow < 0:
            raise ValueError(
                f"stream grow records must be >= 0, got {grow}")
        return grow

    def resolved_stream_reopen_delta(self) -> float:
        """The effective leaf-reopen distribution-shift threshold: the
        field when set, else ``REPRO_STREAM_REOPEN_DELTA``, else 0.25."""
        delta = self.stream_reopen_delta
        if delta is None:
            delta = env_float(STREAM_REOPEN_ENV, 0.25)
        if not 0.0 <= delta <= 1.0:
            raise ValueError(
                f"stream reopen delta must be in [0, 1], got {delta}")
        return delta

    def fingerprint(self, streaming: bool = False) -> str:
        """Digest of the knobs that shape the induced tree — the
        checkpoint-compatibility rule of both induction drivers
        (communication scheduling knobs are free to differ between the
        original run and a resume: they never change the tree).

        Batch (``streaming=False``): the *resolved* split mode joins the
        digest — voted splits are approximations, so resuming a voted run
        in exact mode (or under a different bin budget / vote width)
        would silently graft differently-shaped subtrees;
        that resume must fail loudly instead.  Mode-irrelevant knobs are
        masked out, so e.g. an exact checkpoint resumes regardless of
        the (unused) ``n_bins`` default.

        Streaming: the schedule itself shapes the tree whenever growth
        is eager or sketches compress, so the resolved
        chunk/sketch/grow/reopen knobs join the digest instead.
        """
        shaping = [
            self.max_depth, self.min_split_records,
            float(self.min_improvement), self.criterion,
            self.categorical_binary_subsets, self.subset_exhaustive_limit,
        ]
        if streaming:
            shaping += [
                self.resolved_stream_chunk_records(),
                self.resolved_sketch_size(),
                self.resolved_stream_grow_records(),
                float(self.resolved_stream_reopen_delta()),
            ]
        else:
            mode = self.resolved_split_mode()
            shaping += [
                mode,
                self.n_bins if mode == "voted" else None,
                self.vote_top_k if mode == "voted" else None,
            ]
        return payload_digest(shaping)

    def cut_header(self, algo: str, schema: Schema,
                   streaming: bool = False) -> dict:
        """The compatibility header an induction driver tagged ``algo``
        writes into a checkpoint cut's shared payload — and the
        expectation :meth:`LoadedCheckpoint.expect
        <repro.runtime.checkpoint.LoadedCheckpoint.expect>` checks a cut
        against on resume."""
        return {"algo": algo, "schema": schema_fingerprint(schema),
                "config": self.fingerprint(streaming)}

    def __post_init__(self):
        if self.checkpoint is not None:
            from ..runtime.checkpoint import CheckpointConfig

            if not isinstance(self.checkpoint,
                              (CheckpointConfig, str, os.PathLike)):
                raise TypeError(
                    "checkpoint must be a CheckpointConfig, a directory "
                    f"path or None, got {type(self.checkpoint).__name__}"
                )
        if self.backend is not None:
            from ..runtime import available_backends

            if self.backend not in available_backends():
                raise ValueError(
                    f"backend must be one of {available_backends()}, "
                    f"got {self.backend!r}"
                )
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0 or None")
        if self.min_split_records < 2:
            raise ValueError("min_split_records must be >= 2")
        if self.min_improvement < 0:
            raise ValueError("min_improvement must be >= 0")
        if self.criterion not in CRITERIA:
            raise ValueError(
                f"criterion must be one of {CRITERIA}, got {self.criterion!r}"
            )
        if self.max_update_block is not None and self.max_update_block <= 0:
            raise ValueError("max_update_block must be positive")
        if self.split_mode is not None and self.split_mode not in SPLIT_MODES:
            raise ValueError(
                f"split_mode must be one of {SPLIT_MODES} or None, "
                f"got {self.split_mode!r}"
            )
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        if self.vote_top_k < 1:
            raise ValueError("vote_top_k must be >= 1")
        if self.stream_chunk_records is not None \
                and self.stream_chunk_records < 1:
            raise ValueError("stream_chunk_records must be >= 1 or None")
        if self.sketch_size is not None and self.sketch_size < 8:
            raise ValueError("sketch_size must be >= 8 or None")
        if self.stream_grow_records is not None \
                and self.stream_grow_records < 0:
            raise ValueError("stream_grow_records must be >= 0 or None")
        if self.stream_reopen_delta is not None \
                and not 0.0 <= self.stream_reopen_delta <= 1.0:
            raise ValueError("stream_reopen_delta must be in [0, 1] or None")

"""Induction configuration shared by ScalParC and the baselines.

Every knob here shapes the induced tree, and each lives in exactly one
place:
this dataclass, plus a CLI flag where the CLI exposes it.  No knob falls
back to the environment, so a stray variable cannot change a tree.  The
run-time knobs live with the run: ``backend=`` on
:class:`~repro.core.classifier.ScalParC` / ``run_spmd`` (or
``REPRO_SPMD_BACKEND``) and ``checkpoint=`` on ``fit`` (or
``REPRO_SPMD_CHECKPOINT``).

Every knob is honored identically by the parallel classifier and the
serial golden reference, so any configuration can be cross-checked for
exact tree equality.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..datagen.schema import Schema
from ..runtime.tracing.events import payload_digest
from .criteria import CRITERIA, GINI

__all__ = ["InductionConfig", "SPLIT_MODES", "schema_fingerprint"]

#: recognized FindSplit strategies (see :mod:`repro.core.strategies`)
SPLIT_MODES = ("exact", "voted")

#: fields where ``None`` means the field's default — callers written when
#: ``None`` deferred to an environment variable still construct
_NONE_MEANS_DEFAULT = ("split_mode", "stream_chunk_records", "sketch_size")


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
        Must be ≥ 0 (NaN is refused: no gain compares with it).
    criterion:
        ``"gini"`` (the paper's index) or ``"entropy"`` (extension).
    categorical_binary_subsets:
        False (paper default): one child per occurring categorical value.
        True (footnote 1 extension): binary subset splits.
    subset_exhaustive_limit:
        With subset splits, values-with-records threshold up to which the
        subset search is exhaustive rather than greedy.
    split_mode:
        FindSplit strategy (see :mod:`repro.core.strategies`):
        ``"exact"`` (the default: the paper's exscan formulation,
        bit-identical to the serial reference) or ``"voted"``
        (continuous attributes pre-binned at presort, plus PV-Tree local
        top-k attribute voting so only the elected attributes'
        per-(node, bin, class) count cubes are globalized — the
        communication-efficient mode).  Exact never changes the tree;
        voted is an approximation and *does* shape it, so the mode joins
        the checkpoint compatibility fingerprint.
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
    stream_chunk_records:
        Streaming induction (see :mod:`repro.streaming`): global records
        ingested per epoch (default 4096).
    sketch_size:
        Streaming induction: capacity (distinct-value slots) of each
        per-(node, continuous attribute) quantile sketch (default 256).
        The sketch is *lossless* — and the streamed tree bit-identical
        to batch ScalParC on the same prefix — whenever every (node,
        continuous attribute) pair sees at most this many distinct
        values; beyond that it compresses deterministically and splits
        become approximate.  Categorical attributes are kept as exact
        per-node count rows (``n_values × n_classes`` each, as batch's
        count matrices), which this bound does not touch.

    ``None`` for ``split_mode`` or a streaming knob means its default.
    """

    max_depth: int | None = None
    min_split_records: int = 2
    min_improvement: float = 0.0
    criterion: str = GINI
    categorical_binary_subsets: bool = False
    subset_exhaustive_limit: int = 12
    split_mode: str = "exact"
    n_bins: int = 32
    vote_top_k: int = 2
    stream_chunk_records: int = 4096
    sketch_size: int = 256

    def resolved_split_mode(self) -> str:
        """The FindSplit strategy name (``split_mode``)."""
        return self.split_mode

    def resolved_stream_chunk_records(self) -> int:
        """The per-epoch global chunk size (``stream_chunk_records``)."""
        return self.stream_chunk_records

    def resolved_sketch_size(self) -> int:
        """The per-(node, continuous attribute) sketch capacity
        (``sketch_size``)."""
        return self.sketch_size

    def fingerprint(self, streaming: bool = False) -> str:
        """Digest of the knobs that shape the induced tree — the
        checkpoint-compatibility rule of both induction drivers.

        Batch (``streaming=False``): the split mode joins the digest —
        voted splits are approximations, so resuming a voted run in exact
        mode (or under a different bin budget / vote width) would
        silently graft differently-shaped subtrees; that resume must fail
        loudly instead.  Mode-irrelevant knobs are masked out, so e.g. an
        exact checkpoint resumes regardless of the (unused) ``n_bins``.

        Streaming: the schedule itself shapes the tree whenever sketches
        compress, so the chunk and sketch knobs join the digest instead.
        """
        shaping = [
            self.max_depth, self.min_split_records,
            float(self.min_improvement), self.criterion,
            self.categorical_binary_subsets, self.subset_exhaustive_limit,
        ]
        if streaming:
            # the retired eager-growth threshold and reopen delta at the
            # values every finalize-only cut was written with: digests
            # on disk stay valid, and a cut of an eager fit is refused
            shaping += [self.stream_chunk_records, self.sketch_size, 0, 0.25]
        else:
            voted = self.split_mode == "voted"
            shaping += [self.split_mode,
                        self.n_bins if voted else None,
                        self.vote_top_k if voted else None]
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
        for field in dataclasses.fields(self):
            if field.name in _NONE_MEANS_DEFAULT \
                    and getattr(self, field.name) is None:
                object.__setattr__(self, field.name, field.default)
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0 or None")
        if self.min_split_records < 2:
            raise ValueError("min_split_records must be >= 2")
        if not self.min_improvement >= 0:       # NaN included
            raise ValueError(
                f"min_improvement must be >= 0, got {self.min_improvement}")
        if self.criterion not in CRITERIA:
            raise ValueError(
                f"criterion must be one of {CRITERIA}, got {self.criterion!r}"
            )
        if self.split_mode not in SPLIT_MODES:
            raise ValueError(
                f"split_mode must be one of {SPLIT_MODES}, "
                f"got {self.split_mode!r}"
            )
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        if self.vote_top_k < 1:
            raise ValueError("vote_top_k must be >= 1")
        if self.stream_chunk_records < 1:
            raise ValueError("stream_chunk_records must be >= 1")
        if self.sketch_size < 8:
            raise ValueError("sketch_size must be >= 8")

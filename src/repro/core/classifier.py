"""ScalParC public facade.

The one-stop API most users want::

    from repro import ScalParC, paper_dataset

    clf = ScalParC(n_processors=16)
    result = clf.fit(paper_dataset(100_000, "F2"))
    result.tree.predict(test_set)
    print(result.stats.describe())   # modeled Cray-T3D run report
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..datagen.schema import Dataset, check_training_values
from ..perfmodel import (
    CRAY_T3D,
    MachineSpec,
    RankTracker,
    SimulatedRunStats,
    price,
)
from ..runtime import run_spmd
from ..tree.model import DecisionTree
from .config import InductionConfig
from .induction import induce_worker

__all__ = ["ScalParC", "SpmdClassifier", "FitResult", "fit_scalparc",
           "run_priced"]


def run_priced(
    machine: MachineSpec | None,
    size: int,
    worker: Callable[..., Any],
    args: Sequence[Any] = (),
    **run_kwargs: Any,
) -> tuple[list, SimulatedRunStats | None]:
    """Run ``worker`` on ``size`` ranks (:func:`~repro.runtime.run_spmd`
    with ``run_kwargs``), priced on ``machine`` when one is given.

    Returns ``(per-rank results, run statistics)``; the statistics are
    ``None`` when ``machine`` is ``None`` — no ledgers are attached, so
    an unpriced run pays nothing for the model.  A recovered run (see
    :mod:`repro.runtime.checkpoint`) prices exactly the ledgers of the
    world that finished: one per result.
    """
    if machine is None:
        return run_spmd(size, worker, args, **run_kwargs), None
    ledgers = [RankTracker() for _ in range(size)]
    results = run_spmd(size, worker, args, rank_perf=ledgers, **run_kwargs)
    return results, price(ledgers[:len(results)], machine)


class _RankZeroResult:
    """``worker``, returning its result on rank 0 and ``None`` elsewhere:
    every rank ends with the same replicated tree and the facade keeps
    one, so the others need not ship theirs home.  A module-level class
    so it pickles under the ``spawn`` start method; ``__wrapped__`` lets
    ``run_spmd`` read the worker's own signature (whether it takes
    ``checkpoint=``), and keywords pass straight through."""

    def __init__(self, worker: Callable[..., Any]):
        self.__wrapped__ = worker

    def __call__(self, comm: Any, *args: Any, **kwargs: Any) -> Any:
        result = self.__wrapped__(comm, *args, **kwargs)
        return result if comm.rank == 0 else None


@dataclass(frozen=True)
class FitResult:
    """Outcome of one ScalParC training run."""

    tree: DecisionTree
    #: modeled-machine measurements (None when machine pricing is disabled)
    stats: SimulatedRunStats | None
    n_processors: int


class SpmdClassifier:
    """The constructor and launch every SPMD inducer's facade shares
    (:class:`ScalParC` and the parallel comparators in
    :mod:`repro.baselines`).

    Parameters
    ----------
    n_processors:
        Number of simulated ranks (the paper runs 8…128 on the T3D).
    config:
        Induction parameters — the knobs that shape the tree; defaults
        to the paper's behaviour (gini criterion, multiway categorical
        splits, grow to purity, exact FindSplit).
    machine:
        Machine spec for the performance model, or ``None`` to skip
        pricing entirely.  Defaults to the Cray-T3D-like preset.
    backend:
        SPMD execution engine (``"thread"``, ``"process"``,
        ``"tcp"``); ``None`` defers to the ``REPRO_SPMD_BACKEND``
        environment variable, then thread.  The engine never changes
        the tree.
    """

    def __init__(
        self,
        n_processors: int = 4,
        config: InductionConfig | None = None,
        machine: MachineSpec | None = CRAY_T3D,
        backend: str | None = None,
    ):
        if n_processors <= 0:
            raise ValueError(
                f"n_processors must be positive, got {n_processors}"
            )
        self.n_processors = n_processors
        self.config = config or InductionConfig()
        self.machine = machine
        self.backend = backend

    def _launch(self, worker: Callable[..., DecisionTree], dataset: Dataset,
                **run_kwargs: Any) -> FitResult:
        """Run ``worker(comm, dataset, config)`` on every rank
        (:func:`run_priced`) and wrap rank 0's tree — the only one sent
        back — with the run stats.  An empty training set is refused
        here, before any rank starts (every worker would refuse it)."""
        if dataset.n_records == 0:
            raise ValueError("cannot induce a tree from an empty dataset")
        trees, stats = run_priced(
            self.machine, self.n_processors, _RankZeroResult(worker),
            (dataset, self.config), backend=self.backend, **run_kwargs,
        )
        return FitResult(tree=trees[0], stats=stats,
                         n_processors=self.n_processors)


class ScalParC(SpmdClassifier):
    """Scalable Parallel Classifier (the paper's algorithm); parameters
    as in :class:`SpmdClassifier`.

    Under the default ``config.split_mode`` (exact) the induced tree is
    *independent of* both ``n_processors`` and ``backend``: any
    combination produces exactly the serial reference's tree.  The
    voted split strategy (see :mod:`repro.core.strategies`) trades that
    exactness for communication volume — its trees stay
    backend-independent at a fixed ``n_processors`` but may differ from
    the serial reference and across processor counts (the ballot is cast
    from per-rank local data).
    """

    def fit(self, dataset: Dataset, trace: object | None = None,
            checkpoint: object | None = None) -> FitResult:
        """Induce a decision tree from ``dataset`` on the simulated
        machine; returns the tree plus the priced run statistics.

        ``trace`` accepts a
        :class:`~repro.runtime.tracing.TraceCollector` (or ``True``) to
        record every rank's collective calls for conformance checking and
        phase-volume reporting; ``None`` defers to ``REPRO_SPMD_TRACE``.

        ``checkpoint`` accepts a
        :class:`~repro.runtime.checkpoint.CheckpointConfig` (or a bare
        directory path) to snapshot the fit at level boundaries and —
        on the process backend — transparently respawn it from the last
        snapshot after rank death or timeout; ``None`` defers to the
        ``REPRO_SPMD_CHECKPOINT`` environment variable (a directory).
        A config with ``resume`` set continues an interrupted fit
        instead of starting over.  Checkpointing never changes the tree.

        A continuous column holding NaN is refused before any rank is
        launched (:class:`~repro.datagen.NaNTrainingValueError`, naming
        the attribute and the count); ±inf are ordinary values.  So is
        an empty training set (a ``ValueError``).  The streaming fits and
        ``induce_serial`` apply the same checks.
        """
        check_training_values(dataset)
        return self._launch(induce_worker, dataset, trace=trace,
                            checkpoint=checkpoint)

    def fit_stream(self, dataset: Dataset, trace: object | None = None,
                   checkpoint: object | None = None,
                   max_epochs: int | None = None) -> FitResult:
        """Induce a tree from ``dataset`` consumed as a chunked stream.

        Records are ingested in epochs of
        ``config.stream_chunk_records`` and split statistics live in
        mergeable sketches (see :mod:`repro.streaming`); with the default
        finalize-only growth and lossless sketches the result is
        bit-identical to :meth:`fit` on the same records.  ``max_epochs``
        caps how many chunks this call consumes — the fit stops at a
        sealed epoch cut (pass ``checkpoint`` to make it resumable) and
        skips finalize growth, so a later resumed call continues the
        stream exactly where this one stopped.  ``trace`` and
        ``checkpoint`` behave as in :meth:`fit`; streaming cuts land at
        every epoch boundary instead of level boundaries.
        """
        return self._run_stream(dataset, trace=trace, checkpoint=checkpoint,
                                max_epochs=max_epochs, finalize=True,
                                fresh_cursor=False)

    def partial_fit(self, dataset: Dataset, trace: object | None = None,
                    checkpoint: object | None = None) -> FitResult:
        """Fold one new stream segment into a checkpointed streaming fit.

        ``dataset`` is treated as a brand-new segment (the ingest cursor
        restarts at 0) appended to whatever tree the checkpoint under
        ``checkpoint`` holds — or a fresh tree when none exists yet.  The
        frontier is left open (no finalize growth) so further segments
        can keep refining it; call :meth:`fit_stream` with ``resume`` on
        the last segment to finalize.  ``checkpoint`` (or
        ``REPRO_SPMD_CHECKPOINT``) is required: it is the only place the
        tree persists between segments.
        """
        from dataclasses import replace

        from ..runtime.checkpoint import latest_manifest, resolve_checkpoint

        ckpt = resolve_checkpoint(checkpoint)
        if ckpt is None:
            raise ValueError(
                "partial_fit needs a checkpoint directory to carry the "
                "tree between segments"
            )
        # a prior segment's cut means this one continues its tree
        if ckpt.resume is False and latest_manifest(ckpt.dir) is not None:
            ckpt = replace(ckpt, resume=True)
        return self._run_stream(dataset, trace=trace, checkpoint=ckpt,
                                max_epochs=None, finalize=False,
                                fresh_cursor=True)

    def _run_stream(self, dataset: Dataset, *, trace, checkpoint,
                    max_epochs, finalize, fresh_cursor) -> FitResult:
        from ..streaming import stream_induce_worker

        check_training_values(dataset)
        return self._launch(
            stream_induce_worker, dataset,
            kwargs={"max_epochs": max_epochs, "finalize": finalize,
                    "fresh_cursor": fresh_cursor},
            trace=trace, checkpoint=checkpoint,
        )


def fit_scalparc(
    dataset: Dataset,
    n_processors: int = 4,
    config: InductionConfig | None = None,
    machine: MachineSpec | None = CRAY_T3D,
    backend: str | None = None,
    trace: object | None = None,
    checkpoint: object | None = None,
) -> FitResult:
    """Functional one-liner around :class:`ScalParC`."""
    return ScalParC(n_processors, config, machine, backend=backend).fit(
        dataset, trace=trace, checkpoint=checkpoint,
    )

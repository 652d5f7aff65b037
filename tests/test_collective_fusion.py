"""Collective fusion: the deferred-batch runtime layer and its use by the
FindSplit phases.

Four halves:

* unit — :class:`FusedBatch` semantics: futures resolve only on flush,
  grouping by (kind, operator, layout), segmented multi-root reduce,
  misuse errors, and exact equality with the unfused collectives;
* differential — an induction through the fusion layer and one whose
  batches issue every collective at once, on its own, produce
  bit-identical trees and identical *logical* trace digests on every
  backend × processor count (the fused schedule is a repacking, never a
  reordering of data);
* guard — the fused schedule stays ≤ 4 collectives per FindSplit phase
  per level *regardless of attribute count* (tier-1 perf regression
  guard for the O(n_attributes) → O(1) claim);
* pricing — the cost model counts a fused rendezvous once, and the
  logical-collective counter sees through the packing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import induce_serial
from repro.core import ScalParC
from repro.core.config import InductionConfig
from repro.core.phases import FINDSPLIT1, FINDSPLIT2
from repro.datagen import generate_quest
from repro.datagen.random_data import random_dataset, random_schema
from repro.runtime import (
    FusedBatch,
    FusionError,
    TraceCollector,
    available_backends,
    reduction,
    run_spmd,
)
from repro.runtime.communicator import Communicator
from repro.runtime.fusion import FusedFuture
from repro.runtime.tracing import logical_ops

from tests.conftest import assert_trees_equal

BACKENDS = [b for b in ("thread", "process", "tcp")
            if b in available_backends()]
PROC_COUNTS = [1, 2, 3, 5]
WORKLOADS = [("F2", 300, 7), ("F5", 250, 11)]

ROWWISE_MAX = reduction.ReduceOp(
    "rowmax", lambda a, b: np.where(b[..., 0:1] > a[..., 0:1], b, a),
    identity_like=lambda t: np.full_like(t, -np.inf), cellwise=False,
)


# ---------------------------------------------------------------------------
# unit: FusedBatch semantics
# ---------------------------------------------------------------------------

def test_fused_results_equal_direct_collectives():
    def worker(comm):
        counts = np.arange(6, dtype=np.int64).reshape(2, 3) * (comm.rank + 1)
        wide = np.arange(4, dtype=np.int64) + comm.rank     # same group
        cube = np.full((2, 2), comm.rank + 1, dtype=np.int64)
        rows = np.full((3, 2), float(comm.rank))
        with comm.fused() as batch:
            f1 = batch.exscan(counts, reduction.SUM)
            f2 = batch.exscan(wide, reduction.SUM)
            f3 = batch.reduce(cube, reduction.SUM, root=1)
            f4 = batch.allreduce(rows, ROWWISE_MAX)
        ok = (
            np.array_equal(f1.result(), comm.exscan(counts, reduction.SUM))
            and np.array_equal(f2.result(), comm.exscan(wide, reduction.SUM))
            and np.array_equal(f4.result(), comm.allreduce(rows, ROWWISE_MAX))
        )
        ref = comm.reduce(cube, reduction.SUM, root=1)
        got = f3.result()
        ok = ok and ((got is None) == (ref is None))
        if ref is not None:
            ok = ok and np.array_equal(got, ref)
        return ok

    assert run_spmd(3, worker) == [True, True, True]


def test_grouping_one_rendezvous_per_kind_operator_layout():
    def worker(comm):
        before = len(comm.trace_events)
        with comm.fused() as batch:
            # three cellwise SUM exscans, all shapes → ONE group
            batch.exscan(np.ones((2, 3), dtype=np.int64), reduction.SUM)
            batch.exscan(np.ones(5, dtype=np.int64), reduction.SUM)
            batch.exscan(np.ones((4, 1), dtype=np.int64), reduction.SUM)
            # two multi-root SUM reduces, different cube shapes → ONE group
            batch.reduce(np.ones((2, 5, 2), dtype=np.int64), reduction.SUM,
                         root=0)
            batch.reduce(np.ones((2, 3, 2), dtype=np.int64), reduction.SUM,
                         root=1)
            # row-coupled op → its own group, concatenated along axis 0
            batch.allreduce(np.zeros((2, 2)), ROWWISE_MAX)
        return [e.op for e in comm.trace_events[before:]]

    ops = run_spmd(2, worker, trace=TraceCollector())[0]
    assert ops == [
        "fused_exscan(op=sum,n=3)",
        "fused_reduce(op=sum,n=2)",
        "fused_allreduce(op=rowmax,n=1)",
    ]


def test_noncellwise_groups_split_by_trailing_shape():
    def worker(comm):
        before = len(comm.trace_events)
        with comm.fused() as batch:
            batch.allreduce(np.zeros((2, 2)), ROWWISE_MAX)
            batch.allreduce(np.zeros((5, 2)), ROWWISE_MAX)   # same rows
            batch.allreduce(np.zeros((2, 3)), ROWWISE_MAX)   # wider rows
        return [e.op for e in comm.trace_events[before:]]

    ops = run_spmd(2, worker, trace=TraceCollector())[0]
    assert ops == [
        "fused_allreduce(op=rowmax,n=2)",
        "fused_allreduce(op=rowmax,n=1)",
    ]


def test_future_before_flush_and_reuse_after_flush_raise():
    def worker(comm):
        batch = comm.fused()
        assert isinstance(batch, FusedBatch)
        future = batch.exscan(np.ones(3, dtype=np.int64), reduction.SUM)
        assert isinstance(future, FusedFuture) and not future.done
        with pytest.raises(FusionError, match="before its batch flushed"):
            future.result()
        batch.flush()
        assert future.done
        with pytest.raises(FusionError, match="already flushed"):
            batch.exscan(np.ones(3, dtype=np.int64), reduction.SUM)
        batch.flush()                      # idempotent
        return int(future.result().sum())

    assert run_spmd(2, worker) == [0, 3]


def test_empty_batch_and_error_exit_issue_no_collectives():
    def worker(comm):
        with comm.fused():
            pass                           # nothing deferred, nothing sent
        try:
            with comm.fused() as batch:
                future = batch.exscan(np.ones(2, dtype=np.int64),
                                      reduction.SUM)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        # an exceptional exit must NOT flush (ranks may have diverged)
        return future.done, len(comm.trace_events)

    results = run_spmd(2, worker, trace=TraceCollector())
    assert results == [(False, 0), (False, 0)]


def test_fusion_misuse_errors():
    def worker(comm):
        with comm.fused() as batch:
            # row-coupled operator cannot fuse a scalar
            with pytest.raises(FusionError, match="scalar contributions"):
                batch.reduce(np.float64(1.0), ROWWISE_MAX)
            # exscan needs an identity, checked at enqueue time
            with pytest.raises(ValueError, match="has no identity"):
                batch.exscan(np.ones(2, dtype=np.int64), reduction.MIN)
            # invalid root checked at enqueue time
            with pytest.raises(Exception):
                batch.reduce(np.ones(2, dtype=np.int64), reduction.SUM,
                             root=99)
        return True

    assert run_spmd(1, worker) == [True]


# ---------------------------------------------------------------------------
# differential: fused ≡ unfused on every backend × processor count
# ---------------------------------------------------------------------------

class _Issued:
    """A collective that already ran, answering like a flushed future."""

    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value


class _UnfusedBatch:
    """Stand-in for :class:`FusedBatch` that runs each collective at once,
    on its own: the per-attribute schedule the fusion layer repacks."""

    def __init__(self, comm):
        self._comm = comm

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def exscan(self, value, op):
        return _Issued(self._comm.exscan(value, op))

    def reduce(self, value, op, root=0):
        return _Issued(self._comm.reduce(value, op, root=root))

    def allreduce(self, value, op):
        return _Issued(self._comm.allreduce(value, op))


def _logical_digests(collector, rank):
    return sorted(
        (l.op, l.payload_digest, l.result_digest)
        for l in logical_ops(collector.events_of(rank))
    )


@pytest.fixture(scope="module")
def fusion_references():
    refs = {}
    for fn, n, seed in WORKLOADS:
        ds = generate_quest(n, fn, seed=seed)
        refs[(fn, n, seed)] = (ds, induce_serial(ds))
    return refs


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("nprocs", PROC_COUNTS)
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w[0])
def test_fused_and_unfused_trees_and_logical_digests_match(
        fusion_references, workload, nprocs, backend, monkeypatch):
    ds, ref_tree = fusion_references[workload]
    runs = {}
    for fused in (True, False):
        if not fused:     # forked ranks inherit the patched class
            monkeypatch.setattr(Communicator, "fused",
                                lambda comm: _UnfusedBatch(comm))
        collector = TraceCollector()
        result = ScalParC(n_processors=nprocs, machine=None,
                          backend=backend).fit(ds, trace=collector)
        collector.check().raise_if_failed()
        runs[fused] = (result.tree, collector)
    fused_tree, fused_tc = runs[True]
    unfused_tree, unfused_tc = runs[False]
    assert_trees_equal(fused_tree, unfused_tree,
                       context=f"fused vs unfused {backend} p={nprocs}")
    assert_trees_equal(fused_tree, ref_tree,
                       context=f"fused vs serial {backend} p={nprocs}")
    # the fused schedule repacks, but never reorders or rewrites, the
    # logical collectives: per rank, the digest multisets are identical
    for rank in range(nprocs):
        assert _logical_digests(fused_tc, rank) == \
            _logical_digests(unfused_tc, rank), (backend, nprocs, rank)
    if nprocs > 1:        # the patch really took: no fused op traced
        assert not any(e.op.startswith("fused_")
                       for e in unfused_tc.events_of(0))


# ---------------------------------------------------------------------------
# guard: ≤ 4 collectives per FindSplit phase per level, any attribute count
# ---------------------------------------------------------------------------

def _findsplit_counts_per_level(events):
    """(level, phase) -> collective count over the FindSplit phases."""
    counts: dict[tuple, int] = {}
    for ev in events:
        if ev.level is not None and ev.phase in (FINDSPLIT1, FINDSPLIT2):
            key = (ev.level, ev.phase)
            counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("n_cont,n_cat", [(2, 0), (4, 4), (8, 3), (12, 6)])
def test_fused_schedule_constant_in_attribute_count(n_cont, n_cat):
    rng = np.random.default_rng(n_cont * 31 + n_cat)
    schema = random_schema(rng, n_continuous=n_cont, n_categorical=n_cat,
                           n_classes=3)
    ds = random_dataset(rng, 240, schema)
    collector = TraceCollector()
    ScalParC(n_processors=3, machine=None,
             config=InductionConfig(max_depth=4)).fit(ds, trace=collector)
    collector.check().raise_if_failed()
    counts = _findsplit_counts_per_level(collector.events_of(0))
    assert counts, "no FindSplit collectives traced"
    offenders = {k: v for k, v in counts.items() if v > 4}
    assert not offenders, (
        f"fused FindSplit schedule exceeded 4 collectives/level with "
        f"{n_cont} continuous + {n_cat} categorical attributes: {offenders}"
    )


# ---------------------------------------------------------------------------
# pricing: one latency per fused group
# ---------------------------------------------------------------------------

def test_fusion_reduces_modeled_time_and_counts_logical_ops():
    fused = ScalParC(8).fit(generate_quest(500, "F2", seed=3))
    # the logical-collective counter sees through the packing: a fused
    # rendezvous carries several logical collectives and is counted once
    assert fused.stats.logical_collectives \
        > sum(fused.stats.collective_counts.values())
    assert "fused from" in fused.stats.describe()

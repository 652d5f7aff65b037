"""Differential harness: every engine backend × processor count must
reproduce the serial reference bit-for-bit.

The engine-conformance suite checks the *collective library* behaves
identically across backends; this suite checks the whole *algorithm*
does — seeded Quest workloads are induced on every backend at several
processor counts, and both the tree structure and the per-record
predictions must match the serial reference exactly.  Every parallel run
is collective-traced and conformance-checked, so a passing test also
certifies the ranks stayed in lock-step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import induce_serial
from repro.core import InductionConfig, ScalParC
from repro.datagen import generate_quest, make_dataset
from repro.runtime import TraceCollector, available_backends

from tests.conftest import assert_trees_equal

BACKENDS = [b for b in ("thread", "process", "tcp")
            if b in available_backends()]
PROC_COUNTS = [1, 2, 3, 5]

# (function, n_records, seed): F2 splits on both attribute kinds, F5 is
# arithmetic on continuous attributes — together they exercise the
# continuous and categorical findsplit/split paths
WORKLOADS = [("F2", 400, 7), ("F5", 350, 11)]


def _workload(fn: str, n: int, seed: int):
    return generate_quest(n, fn, seed=seed)


@pytest.fixture(scope="module")
def references():
    """Serial reference tree + predictions per workload (induced once)."""
    refs = {}
    for fn, n, seed in WORKLOADS:
        ds = _workload(fn, n, seed)
        tree = induce_serial(ds)
        refs[(fn, n, seed)] = (ds, tree, tree.predict_columns(ds.columns))
    return refs


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("nprocs", PROC_COUNTS)
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w[0])
def test_backend_matches_serial_reference(references, workload, nprocs,
                                          backend):
    ds, ref_tree, ref_pred = references[workload]
    collector = TraceCollector()
    result = ScalParC(n_processors=nprocs, machine=None,
                      backend=backend).fit(ds, trace=collector)

    assert_trees_equal(result.tree, ref_tree,
                       f"({workload[0]} p={nprocs} backend={backend})")
    got = result.tree.predict_columns(ds.columns)
    np.testing.assert_array_equal(got, ref_pred)

    report = collector.check()
    assert report.ok, report.summary()
    assert all(len(collector.events_of(r)) > 0 for r in range(nprocs))


@pytest.mark.skipif("process" not in BACKENDS,
                    reason="process backend unavailable")
@pytest.mark.parametrize("nprocs", [2, 3, 5])
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w[0])
def test_shm_dataplane_on_off_traces_identical(monkeypatch, references,
                                               workload, nprocs):
    """The shared-memory data plane is a pure transport optimization: a
    traced run with the plane forced on (aggressively low threshold) must
    be event-for-event digest-identical to one with the plane off, and
    both must still match the serial reference tree."""
    ds, ref_tree, _ref_pred = references[workload]

    def run(threshold: str):
        monkeypatch.setenv("REPRO_SPMD_SHM_THRESHOLD", threshold)
        tc = TraceCollector()
        result = ScalParC(n_processors=nprocs, machine=None,
                          backend="process").fit(ds, trace=tc)
        return tc, result

    tc_on, res_on = run("4096")
    tc_off, res_off = run("off")

    assert_trees_equal(res_on.tree, ref_tree,
                       f"plane on ({workload[0]} p={nprocs})")
    assert_trees_equal(res_off.tree, ref_tree,
                       f"plane off ({workload[0]} p={nprocs})")
    for rank in range(nprocs):
        on_events = tc_on.events_of(rank)
        off_events = tc_off.events_of(rank)
        assert len(on_events) == len(off_events)
        for a, b in zip(on_events, off_events):
            assert (a.op, a.payload_digest, a.result_digest, a.phase,
                    a.level) == \
                   (b.op, b.payload_digest, b.result_digest, b.phase,
                    b.level)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backends_produce_identical_traces(backend):
    """Beyond tree equality: the per-rank collective *sequence* of a run
    is identical across backends (same ops, payload digests and phases
    step for step) — the strongest cross-backend determinism statement
    the trace layer can make."""
    ds = _workload("F2", 300, 3)

    def run(b):
        tc = TraceCollector()
        ScalParC(n_processors=3, machine=None, backend=b).fit(ds, trace=tc)
        return tc

    baseline = run(BACKENDS[0])
    other = run(backend)
    for rank in range(3):
        ref_events = baseline.events_of(rank)
        got_events = other.events_of(rank)
        assert len(ref_events) == len(got_events)
        for a, b in zip(ref_events, got_events):
            assert (a.op, a.payload_digest, a.result_digest, a.phase,
                    a.level) == \
                   (b.op, b.payload_digest, b.result_digest, b.phase,
                    b.level)


#: (criterion, n_classes) of the class-boundary straddle sets
BOUNDARY_CASES = [("gini", 2), ("entropy", 2), ("gini", 3)]


def _straddle_set(n_classes: int, n: int = 240):
    """Few distinct values and long same-class stretches: sorted by
    value, every attribute's duplicate groups and pure-class runs are
    long enough to cross the ⌈N/p⌉ block edges at p = 2, 3 and 5, where
    FindSplitII's class-boundary pruning must keep the edge cuts.  A
    little label noise leaves some groups impure, so the runs break
    mid-list and the tree grows several levels."""
    rng = np.random.default_rng(41 + n_classes)
    x = rng.integers(0, 8, n).astype(np.float64)
    y = rng.integers(0, 5, n).astype(np.float64)
    labels = ((x // 3).astype(np.int64) + (y >= 3)) % n_classes
    noisy = rng.random(n) < 0.06
    labels[noisy] = rng.integers(0, n_classes, int(noisy.sum()))
    return make_dataset(continuous={"x": x, "y": y},
                        labels=labels.tolist(), n_classes=n_classes)


@pytest.fixture(scope="module")
def straddle_references():
    """Per case: the set, its config, the serial reference tree and the
    thread backend's per-rank trace events at each processor count."""
    refs = {}
    for criterion, n_classes in BOUNDARY_CASES:
        ds = _straddle_set(n_classes)
        config = InductionConfig(criterion=criterion)
        events = {}
        for nprocs in (2, 3, 5):
            tc = TraceCollector()
            ScalParC(n_processors=nprocs, config=config, machine=None,
                     backend="thread").fit(ds, trace=tc)
            events[nprocs] = [tc.events_of(r) for r in range(nprocs)]
        refs[(criterion, n_classes)] = (ds, config,
                                        induce_serial(ds, config), events)
    return refs


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("nprocs", [2, 3, 5])
@pytest.mark.parametrize("case", BOUNDARY_CASES,
                         ids=lambda c: f"{c[0]}-c{c[1]}")
def test_class_boundary_runs_straddling_blocks(straddle_references, case,
                                               nprocs, backend):
    """Duplicate groups and pure-class runs that cross rank edges: the
    tree is the serial reference's, and every rank's trace matches the
    thread backend's digest for digest."""
    ds, config, ref_tree, ref_events = straddle_references[case]
    tc = TraceCollector()
    result = ScalParC(n_processors=nprocs, config=config, machine=None,
                      backend=backend).fit(ds, trace=tc)
    assert_trees_equal(result.tree, ref_tree,
                       f"(straddle {case} p={nprocs} backend={backend})")
    assert tc.check().ok
    for rank in range(nprocs):
        got = tc.events_of(rank)
        assert len(got) == len(ref_events[nprocs][rank])
        for a, b in zip(got, ref_events[nprocs][rank]):
            assert (a.op, a.payload_digest, a.result_digest, a.phase,
                    a.level) == \
                   (b.op, b.payload_digest, b.result_digest, b.phase,
                    b.level)

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
from repro.core import ScalParC
from repro.datagen import generate_quest
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

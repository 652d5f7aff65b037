"""The collective trace and SPMD conformance checker.

Two halves:

* positive — traced real runs on every backend validate cleanly, events
  carry the phase/level tags the induction loop stamps, per-phase comm
  volume reaches the trace report, and the ``REPRO_SPMD_TRACE`` path
  auto-checks jobs;
* negative — hand-skewed traces (missing call, wrong operator, wrong
  shape, digest mismatch, …) each produce their own distinct diagnostic.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import ScalParC
from repro.core.phases import ALL_PHASES
from repro.datagen import generate_quest
from repro.runtime import (
    TraceCollector,
    TraceConformanceError,
    available_backends,
    check_traces,
    format_trace_report,
    last_trace_collector,
    reduction,
    run_spmd,
)
from repro.runtime.tracing import LogicalOp, TraceEvent, payload_digest

BACKENDS = [b for b in ("thread", "process")
            if b in available_backends()]


# ---------------------------------------------------------------------------
# positive: real traced runs
# ---------------------------------------------------------------------------

def _collective_worker(comm):
    total = comm.allreduce(np.int64(comm.rank + 1), reduction.SUM)
    comm.barrier()
    rows = comm.allgather(np.arange(comm.rank + 1, dtype=np.int64))
    part = comm.exscan(np.int64(10), reduction.SUM)
    return int(total), len(rows), int(part)


@pytest.mark.parametrize("backend", BACKENDS)
def test_traced_job_validates_on_every_backend(backend):
    collector = TraceCollector()
    results = run_spmd(3, _collective_worker, backend=backend,
                       trace=collector)
    assert results == [(6, 3, 0), (6, 3, 10), (6, 3, 20)]
    assert collector.backend == backend
    report = collector.check()
    assert report.ok, report.summary()
    assert report.checked_steps == 4
    # every rank recorded every collective, in the same order
    kinds = [ev.kind for ev in collector.events_of(0)]
    assert kinds == ["allreduce", "barrier", "allgather", "exscan"]
    for rank in (1, 2):
        assert [ev.kind for ev in collector.events_of(rank)] == kinds


@pytest.mark.parametrize("backend", BACKENDS)
def test_env_var_auto_checks_full_induction(backend, monkeypatch):
    """Acceptance criterion: REPRO_SPMD_TRACE=1 traces and validates a
    full ScalParC induction on every backend."""
    monkeypatch.setenv("REPRO_SPMD_TRACE", "1")
    ds = generate_quest(300, "F2", seed=7)
    ScalParC(n_processors=3, machine=None, backend=backend).fit(ds)
    collector = last_trace_collector()
    assert collector is not None and collector.backend == backend
    report = collector.check()
    assert report.ok, report.summary()


def test_env_var_divergence_raises(monkeypatch):
    """A skew the engines' online op check can't see (mismatched
    contribution dtypes) still fails the auto-check after the run."""
    monkeypatch.setenv("REPRO_SPMD_TRACE", "1")

    def divergent(comm):
        payload = np.int64(1) if comm.rank == 0 else np.float64(1.0)
        return comm.allreduce(payload, reduction.SUM)

    with pytest.raises(TraceConformanceError) as excinfo:
        run_spmd(2, divergent)
    assert "dtype-mismatch" in excinfo.value.report.codes()


def test_induction_events_carry_phase_and_level_tags():
    ds = generate_quest(300, "F2", seed=7)
    collector = TraceCollector()
    ScalParC(n_processors=2, machine=None).fit(ds, trace=collector)
    events = collector.events_of(0)
    phases = {ev.phase for ev in events if ev.phase is not None}
    assert phases <= set(ALL_PHASES)
    assert len(phases) >= 4        # every major phase communicates
    levels = {ev.level for ev in events if ev.level is not None}
    assert 0 in levels and len(levels) > 1
    # Presort runs before the level loop, hence stays untagged
    assert all(ev.level is None for ev in events if ev.phase == "Presort")


#: bytes in + out per phase, summed over ranks, of F2 / 300 records /
#: p = 2 at seed 7 (the ledger's per-phase copy read the same numbers
#: before the trace became their one owner)
PHASE_VOLUME = {"FindSplitI": 13776, "FindSplitII": 1272, "Handoff": 109982,
                "PerformSplitI": 4848, "PerformSplitII": 31344,
                "Presort": 99952}


def test_phase_comm_volume_reaches_trace_report():
    ds = generate_quest(300, "F2", seed=7)
    collector = TraceCollector()
    traced = ScalParC(n_processors=2).fit(ds, trace=collector)
    assert set(PHASE_VOLUME) == set(ALL_PHASES)
    text = collector.report()
    vol = ", ".join(f"{p}={n}B" for p, n in sorted(PHASE_VOLUME.items()))
    assert f"  phase volume  : {vol}\n" in text
    assert "  split volume  : 15048B (all FindSplit* phases)\n" in text
    # the priced block reports the simulated machine only
    assert "split volume" not in traced.stats.describe()


def test_trace_report_is_human_readable():
    collector = TraceCollector()
    run_spmd(2, _collective_worker, trace=collector)
    text = format_trace_report(collector)
    assert "2 rank(s)" in text
    assert "allreduce" in text and "exscan" in text
    assert "OK (all ranks in lock-step)" in text
    assert collector.report() == text


# ---------------------------------------------------------------------------
# negative: skewed fake traces -> distinct diagnostics
# ---------------------------------------------------------------------------

def _event(seq, kind="allreduce", op=None, operator="sum", dtype="int64",
           shape=(4,), payload=b"x", result=b"y", phase=None, level=None):
    return TraceEvent(
        seq=seq,
        kind=kind,
        op=op if op is not None else (
            f"{kind}(op={operator})" if operator else kind
        ),
        operator=operator,
        dtype=dtype,
        shape=shape,
        payload_digest=payload_digest(payload),
        payload_nbytes=32,
        result_digest=payload_digest(result),
        result_nbytes=32,
        wall_seconds=0.0,
        clock=0.0,
        phase=phase,
        level=level,
    )


def _lockstep(n_ranks=3, n_steps=2, **kw):
    return {r: [_event(s, **kw) for s in range(n_steps)]
            for r in range(n_ranks)}


def test_lockstep_traces_pass():
    report = check_traces(_lockstep())
    assert report.ok
    assert report.checked_steps == 2
    assert report.events_per_rank == (2, 2, 2)


def test_missing_call_is_truncated_sequence():
    traces = _lockstep()
    traces[1] = traces[1][:1]          # rank 1 skipped its last collective
    report = check_traces(traces)
    assert report.codes() == ("truncated-sequence",)
    diag = report.diagnostics[0]
    assert diag.step == 1 and diag.ranks == (1,)
    assert "stopped after 1 event(s)" in diag.message
    # the walk stops at the skew: only the aligned prefix was validated
    assert report.checked_steps == 1


def test_undelivered_rank_is_flagged_as_possibly_dead():
    traces = _lockstep()
    del traces[2]                      # e.g. the worker process was killed
    report = check_traces(traces, size=3)
    assert report.codes() == ("truncated-sequence",)
    assert report.diagnostics[0].ranks == (2,)
    assert "did the rank die?" in report.diagnostics[0].message


def test_wrong_collective_is_op_mismatch():
    traces = _lockstep()
    traces[2][1] = _event(1, kind="barrier", operator=None)
    report = check_traces(traces)
    assert report.codes() == ("op-mismatch",)
    diag = report.diagnostics[0]
    assert diag.ranks == (2,) and "'barrier'" in diag.message


def test_wrong_operator_is_operator_mismatch():
    traces = _lockstep()
    traces[0][0] = _event(0, operator="max")
    report = check_traces(traces)
    assert report.codes() == ("operator-mismatch",)
    diag = report.diagnostics[0]
    assert diag.step == 0 and diag.ranks == (0,)
    assert "op='max'" in diag.message and "op='sum'" in diag.message


def test_wrong_root_is_metadata_mismatch():
    traces = _lockstep(kind="reduce", op="reduce(op=sum,root=0)")
    traces[1][0] = _event(0, kind="reduce", op="reduce(op=sum,root=1)")
    report = check_traces(traces)
    assert report.codes() == ("metadata-mismatch",)
    assert "reduce(op=sum,root=1)" in report.diagnostics[0].message


def test_wrong_shape_is_shape_mismatch():
    traces = _lockstep()
    traces[1][1] = _event(1, shape=(5,))
    report = check_traces(traces)
    assert report.codes() == ("shape-mismatch",)
    diag = report.diagnostics[0]
    assert diag.ranks == (1,) and "shape=(5,)" in diag.message


def test_wrong_dtype_is_dtype_mismatch():
    traces = _lockstep()
    traces[0][1] = _event(1, dtype="float32")
    report = check_traces(traces)
    assert report.codes() == ("dtype-mismatch",)
    assert "dtype=float32" in report.diagnostics[0].message


def test_divergent_result_is_result_divergence():
    traces = _lockstep()
    traces[2][0] = _event(0, result=b"corrupted")
    report = check_traces(traces)
    assert report.codes() == ("result-divergence",)
    diag = report.diagnostics[0]
    assert diag.ranks == (2,) and "digests diverge" in diag.message


def test_divergent_phase_is_phase_mismatch():
    traces = _lockstep(phase="FindSplitI")
    traces[1][1] = _event(1, phase="Presort")
    report = check_traces(traces)
    assert report.codes() == ("phase-mismatch",)
    assert "'Presort'" in report.diagnostics[0].message


def test_content_checks_accumulate_across_steps():
    """Unlike alignment failures, content failures don't stop the walk."""
    traces = _lockstep(n_steps=3)
    traces[0][0] = _event(0, operator="max")
    traces[1][2] = _event(2, shape=(9,))
    report = check_traces(traces)
    assert report.codes() == ("operator-mismatch", "shape-mismatch")
    assert report.checked_steps == 3


def _logical(op="exscan(op=sum)", shape=(4,), payload=b"x", result=b"y"):
    return LogicalOp(
        op=op, dtype="int64", shape=shape,
        payload_digest=payload_digest(payload), payload_nbytes=32,
        result_digest=payload_digest(result), result_nbytes=32,
    )


def _fused_event(seq, sections, **kw):
    return replace(
        _event(seq, kind="fused_exscan",
               op=f"fused_exscan(op=sum,n={len(sections)})",
               operator="sum", **kw),
        fused_from=tuple(sections),
    )


def _fused_lockstep(n_ranks=3):
    sections = [_logical(), _logical(shape=(2, 2), payload=b"p")]
    return {r: [_fused_event(0, sections)] for r in range(n_ranks)}


def test_matching_fusion_manifests_pass():
    report = check_traces(_fused_lockstep())
    assert report.ok, report.summary()


def test_corrupted_fusion_manifest_is_manifest_mismatch():
    traces = _fused_lockstep()
    # rank 1 claims its second section was a different logical collective
    bad = traces[1][0].fused_from[0], _logical(op="exscan(op=max)",
                                               shape=(2, 2), payload=b"p")
    traces[1][0] = replace(traces[1][0], fused_from=bad)
    report = check_traces(traces)
    assert report.codes() == ("fusion-manifest-mismatch",)
    diag = report.diagnostics[0]
    assert diag.ranks == (1,) and "exscan(op=max)" in diag.message


def test_missing_fusion_manifest_is_manifest_mismatch():
    traces = _fused_lockstep()
    traces[2][0] = replace(traces[2][0], fused_from=None)
    report = check_traces(traces)
    assert report.codes() == ("fusion-manifest-mismatch",)
    assert "no manifest" in report.diagnostics[0].message


def test_misaligned_section_shapes_are_manifest_mismatch():
    traces = _fused_lockstep()
    first = traces[0][0].fused_from
    traces[0][0] = replace(
        traces[0][0],
        fused_from=(replace(first[0], shape=(9,)), first[1]),
    )
    report = check_traces(traces)
    assert report.codes() == ("fusion-manifest-mismatch",)
    assert report.diagnostics[0].ranks == (0,)


def test_divergent_replicated_fused_section_is_result_divergence():
    sections = [_logical(op="allreduce(op=sum)"), _logical(shape=(2, 2))]
    traces = {r: [_fused_event(0, sections)] for r in range(3)}
    skewed = (_logical(op="allreduce(op=sum)", result=b"corrupted"),
              sections[1])
    traces[1][0] = replace(traces[1][0], fused_from=skewed)
    report = check_traces(traces)
    assert report.codes() == ("result-divergence",)
    diag = report.diagnostics[0]
    assert diag.ranks == (1,) and "fused section 0" in diag.message


def test_corrupted_manifest_in_real_fused_run_is_caught():
    """End to end: corrupt one rank's recorded fusion manifest from a real
    fused induction and the checker pins that rank."""
    ds = generate_quest(300, "F2", seed=7)
    collector = TraceCollector()
    ScalParC(n_processors=3, machine=None).fit(ds, trace=collector)
    assert collector.check().ok
    events = collector.traces[1]
    idx, ev = next((i, e) for i, e in enumerate(events) if e.fused_from)
    doctored = (replace(ev.fused_from[0], shape=(1, 2, 3)),) \
        + ev.fused_from[1:]
    events[idx] = replace(ev, fused_from=doctored)
    report = collector.check()
    assert "fusion-manifest-mismatch" in report.codes()
    assert all(d.ranks == (1,) for d in report.diagnostics)
    with pytest.raises(TraceConformanceError):
        report.raise_if_failed()


def test_summary_lists_every_violation():
    traces = _lockstep()
    traces[0][0] = _event(0, operator="max")
    report = check_traces(traces)
    text = report.summary()
    assert "1 violation(s)" in text and "[operator-mismatch]" in text
    with pytest.raises(TraceConformanceError) as excinfo:
        report.raise_if_failed()
    assert excinfo.value.report is report

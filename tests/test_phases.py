"""Phase-attribution accounting (Figure 2's phase names on the clock)."""

from __future__ import annotations

import pytest

from repro import ScalParC, paper_dataset
from repro.core.phases import (
    ALL_PHASES,
    FINDSPLIT1,
    FINDSPLIT2,
    HANDOFF,
    PERFORMSPLIT1,
    PERFORMSPLIT2,
    PRESORT,
    timed_phase,
)
from repro.perfmodel import CRAY_T3D, RankTracker, replay


def _phase_seconds(t: RankTracker) -> dict:
    (rank,) = replay([t], CRAY_T3D)
    return rank.phase_seconds


def test_timed_phase_attributes_clock_delta():
    t = RankTracker()
    with timed_phase(t, "work"):
        t.add_compute("scan", 1000)
    assert _phase_seconds(t)["work"] == pytest.approx(
        1000 * CRAY_T3D.cost_of("scan")
    )


def test_timed_phase_nested_double_counts_inner():
    t = RankTracker()
    with timed_phase(t, "outer"):
        with timed_phase(t, "inner"):
            t.add_compute("scan", 100)
    phases = _phase_seconds(t)
    assert phases["outer"] == phases["inner"]


def test_timed_phase_records_on_exception():
    t = RankTracker()
    with pytest.raises(RuntimeError):
        with timed_phase(t, "broken"):
            t.add_compute("scan", 50)
            raise RuntimeError
    assert _phase_seconds(t)["broken"] > 0


def test_timed_phase_noop_on_null_perf():
    from repro.runtime.communicator import NullPerf

    perf = NullPerf()
    with timed_phase(perf, "x"):
        pass  # must not raise


@pytest.fixture(scope="module")
def fit_stats():
    return ScalParC(6).fit(paper_dataset(3000, "F2", seed=0)).stats


def test_all_phases_present(fit_stats):
    for phase in ALL_PHASES:
        assert phase in fit_stats.phase_seconds, f"missing {phase}"
        assert fit_stats.phase_seconds[phase] > 0


def test_phases_cover_most_of_runtime(fit_stats):
    covered = sum(fit_stats.phase_seconds.values())
    assert covered > 0.8 * fit_stats.parallel_time
    # and don't wildly over-count (max-over-ranks introduces slight excess)
    assert covered < 1.3 * fit_stats.parallel_time


def test_presort_measured_once(fit_stats):
    # presort happens before level 0 and is a minority of a deep induction
    assert fit_stats.phase_seconds[PRESORT] < fit_stats.parallel_time


def test_phase_names_are_the_figure2_set():
    # Figure 2's five, plus the hand-off that ends the loop at p > 1
    assert set(ALL_PHASES) == {
        PRESORT, FINDSPLIT1, FINDSPLIT2, PERFORMSPLIT1, PERFORMSPLIT2,
        HANDOFF,
    }

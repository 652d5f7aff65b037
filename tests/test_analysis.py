"""Analysis layer: sweep driver, speedup math, table formatting."""

from __future__ import annotations

import pytest

from repro.analysis import (
    RunPoint,
    format_series,
    format_table,
    parallel_overhead,
    relative_speedup,
    run_grid,
    speedup_series,
)
from repro.datagen import paper_dataset
from repro.perfmodel import CRAY_T3D


@pytest.fixture(scope="module")
def grid_points():
    return run_grid(
        lambda n: paper_dataset(n, "F2", seed=1),
        sizes=[300, 600],
        processor_counts=[2, 4, 8],
    )


def test_grid_covers_all_cells(grid_points):
    assert len(grid_points) == 6
    cells = {(pt.n_records, pt.n_processors) for pt in grid_points}
    assert cells == {(n, p) for n in (300, 600) for p in (2, 4, 8)}
    assert all(pt.algorithm == "scalparc" for pt in grid_points)
    assert all(pt.stats.parallel_time > 0 for pt in grid_points)


@pytest.mark.parametrize("algorithm", ["magic", "vertical-sliq"])
def test_grid_rejects_unknown_algorithm(algorithm):
    with pytest.raises(ValueError):
        run_grid(lambda n: paper_dataset(n, "F2"), [10], [2],
                 algorithm=algorithm)


def test_grid_progress_callback():
    messages = []
    run_grid(lambda n: paper_dataset(n, "F2", seed=0), [100], [2],
             progress=messages.append)
    assert len(messages) == 1
    assert "N=100" in messages[0]


def test_grid_sprint_algorithm():
    pts = run_grid(lambda n: paper_dataset(n, "F2", seed=0), [200], [2],
                   algorithm="parallel-sprint", machine=CRAY_T3D)
    assert pts[0].algorithm == "parallel-sprint"


def test_speedup_series_math(grid_points):
    s = speedup_series(grid_points, 600)
    assert s.processor_counts == (2, 4, 8)
    # anchored: speedup at the smallest machine equals its p
    assert s.speedups[0] == pytest.approx(2.0)
    assert s.efficiencies[0] == pytest.approx(1.0)
    # speedups from the measured times
    assert s.speedups[1] == pytest.approx(
        2 * s.parallel_times[0] / s.parallel_times[1]
    )
    # efficiency never exceeds 1 by much (no superlinear artifacts here)
    assert all(e <= 1.05 for e in s.efficiencies)


def test_speedup_series_unknown_size_raises(grid_points):
    with pytest.raises(ValueError):
        speedup_series(grid_points, 999)


def test_relative_speedup(grid_points):
    s = speedup_series(grid_points, 600)
    r = relative_speedup(s, 2, 8)
    assert r == pytest.approx(s.parallel_times[0] / s.parallel_times[2])
    assert s.relative(2, 8) == r
    with pytest.raises(ValueError):
        relative_speedup(s, 2, 64)


def test_larger_problems_scale_better(grid_points):
    small = speedup_series(grid_points, 300)
    large = speedup_series(grid_points, 600)
    # the paper's headline trend: relative speedups improve with N
    assert large.relative(2, 8) >= small.relative(2, 8) * 0.95


def test_parallel_overhead_definition():
    assert parallel_overhead(10.0, 3.0, 4) == pytest.approx(2.0)
    assert parallel_overhead(10.0, 2.5, 4) == pytest.approx(0.0)


def test_format_table_alignment():
    out = format_table(["p", "time"], [[2, 1.5], [16, 0.25]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "--" in lines[2]
    assert lines[3].endswith("1.5")
    # columns right-aligned: '16' ends at same offset as '2'
    assert lines[4].index("16") + 2 == lines[3].index("2") + 1


def test_format_series_layout():
    out = format_series(
        "N \\ p", [2, 4], {"0.2m": [1.0, 0.5], "0.4m": [2.0, 1.0]},
        fmt="{:.1f}",
    )
    assert "0.2m" in out and "0.4m" in out
    assert out.splitlines()[0].split()[-2:] == ["2", "4"]

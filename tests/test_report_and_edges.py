"""Report generation utilities + assorted deep edge cases across modules."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import ScalParC, induce_serial, paper_dataset
from repro.analysis import (
    collect_results,
    compare_stats,
    results_to_markdown,
)
from repro.datagen import generate_quest, make_dataset, random_schema
from repro.runtime import run_spmd

from tests.conftest import assert_trees_equal


# ---------------------------------------------------------------------------
# report generation
# ---------------------------------------------------------------------------

def test_collect_results_roundtrip(tmp_path):
    (tmp_path / "fig3a_runtime.txt").write_text("TABLE A\n")
    (tmp_path / "custom_thing.txt").write_text("TABLE B\n")
    artifacts = collect_results(tmp_path)
    assert artifacts == {"fig3a_runtime": "TABLE A",
                         "custom_thing": "TABLE B"}


def test_results_to_markdown_ordering(tmp_path):
    (tmp_path / "sprint_comparison.txt").write_text("S\n")
    (tmp_path / "fig3a_runtime.txt").write_text("A\n")
    (tmp_path / "zzz_extra.txt").write_text("Z\n")
    md = results_to_markdown(tmp_path, title="T")
    assert md.startswith("# T")
    # canonical experiments first (fig3a before sprint), extras last
    assert md.index("Figure 3(a)") < md.index("parallel SPRINT")
    assert md.index("parallel SPRINT") < md.index("zzz_extra")


def test_results_to_markdown_empty(tmp_path):
    md = results_to_markdown(tmp_path / "nope")
    assert "no benchmark artifacts" in md


def test_results_md_is_generated_from_the_committed_artefacts():
    """RESULTS.md is ``repro report --out RESULTS.md`` over the committed
    tables, byte for byte: re-run it after re-running a bench."""
    root = Path(__file__).resolve().parent.parent
    md = results_to_markdown(root / "benchmarks" / "results",
                             title="ScalParC reproduction — measured results")
    assert (root / "RESULTS.md").read_text(encoding="utf-8") == md + "\n"


def test_compare_stats_table():
    ds = paper_dataset(800, "F2", seed=0)
    a = ScalParC(2).fit(ds).stats
    b = ScalParC(8).fit(ds).stats
    table = compare_stats([("p2", a), ("p8", b)], title="cmp")
    assert table.startswith("cmp")
    assert "p2" in table and "p8" in table
    assert "mem/rank" in table
    with pytest.raises(ValueError):
        compare_stats([])


# ---------------------------------------------------------------------------
# deep edge cases
# ---------------------------------------------------------------------------

def test_six_classes_wide_schema_parallel_equality():
    rng = np.random.default_rng(1)
    schema = random_schema(rng, n_continuous=9, n_categorical=7,
                           n_classes=6)
    from repro.datagen import random_dataset

    ds = random_dataset(rng, 300, schema)
    ref = induce_serial(ds)
    got = ScalParC(6, machine=None).fit(ds)
    assert_trees_equal(got.tree, ref, "(6 classes, 16 attrs)")


def test_deep_staircase_parallel():
    """Alternating labels over distinct values → a deep chain tree; the
    level-synchronous driver must handle hundreds of levels."""
    n = 150
    ds = make_dataset(
        continuous={"x": [float(i) for i in range(n)]},
        labels=[i % 2 for i in range(n)],
    )
    ref = induce_serial(ds)
    got = ScalParC(4, machine=None).fit(ds)
    assert_trees_equal(got.tree, ref, "(staircase)")
    assert got.tree.n_leaves == n


def test_all_records_one_rank_after_skewed_split():
    """A split sending everything to one child exercises empty segments on
    most ranks at the next level."""
    ds = make_dataset(
        continuous={"x": [1.0] * 99 + [50.0],
                    "y": list(np.linspace(0, 1, 100))},
        labels=[0] * 99 + [1],
    )
    ref = induce_serial(ds)
    got = ScalParC(5, machine=None).fit(ds)
    assert_trees_equal(got.tree, ref, "(skewed)")


def test_min_improvement_one_makes_stumps():
    from repro.core import InductionConfig

    ds = generate_quest(300, "F2", seed=0)
    cfg = InductionConfig(min_improvement=1.0)  # unattainable
    tree = induce_serial(ds, cfg)
    assert tree.root.is_leaf
    got = ScalParC(3, config=cfg, machine=None).fit(ds)
    assert got.tree.root.is_leaf


def test_duplicate_rids_update_resolution_deterministic():
    """Cross-rank duplicate updates are outside ScalParC's usage (each
    record id is written once per level) but must still resolve
    deterministically: unblocked updates apply in source-rank order
    (later rank wins); blocked updates apply round-major but identically
    on every run."""
    from repro.hashing import DistributedNodeTable

    def worker(comm, blocked):
        table = DistributedNodeTable(comm, 4)
        if comm.rank == 0:
            keys = np.array([1, 1, 2], dtype=np.int64)
            vals = np.array([10, 11, 20], dtype=np.int32)
        elif comm.rank == 1:
            keys = np.array([2], dtype=np.int64)
            vals = np.array([21], dtype=np.int32)
        else:
            keys = np.empty(0, dtype=np.int64)
            vals = np.empty(0, dtype=np.int32)
        table.update(keys, vals, blocked=blocked)
        return table.lookup(
            np.array([1, 2], dtype=np.int64) if comm.rank == 0
            else np.empty(0, dtype=np.int64)
        )

    unblocked = run_spmd(3, worker, args=(False,))[0]
    np.testing.assert_array_equal(unblocked, [11, 21])  # later rank wins
    blocked_first = run_spmd(3, worker, args=(True,))[0]
    assert blocked_first[0] == 11  # within-rank duplicates: later wins
    for _ in range(3):  # stable across runs either way
        np.testing.assert_array_equal(
            run_spmd(3, worker, args=(True,))[0], blocked_first
        )


def test_sample_sort_reverse_and_presorted_inputs():
    from repro.sort import parallel_sample_sort

    n, p = 300, 4
    chunk = -(-n // p)
    for values in (np.arange(n, dtype=np.float64),
                   np.arange(n, dtype=np.float64)[::-1].copy()):
        rids = np.arange(n, dtype=np.int64)
        labels = np.zeros(n, dtype=np.int64)

        def worker(comm):
            lo, hi = comm.rank * chunk, min((comm.rank + 1) * chunk, n)
            return parallel_sample_sort(
                comm, values[lo:hi], labels[lo:hi], rids=rids[lo:hi]
            )[0]

        got = np.concatenate(run_spmd(p, worker))
        np.testing.assert_array_equal(got, np.sort(values))


def test_level_durations_cover_run():
    ds = paper_dataset(600, "F2", seed=2)
    stats = ScalParC(4).fit(ds).stats
    durations = stats.level_durations()
    assert len(durations) >= 1
    assert all(d >= 0 for _, d in durations)
    # level marks end at (approximately) the total runtime
    assert stats.level_marks[-1][1] == pytest.approx(
        stats.parallel_time, rel=0.05
    )

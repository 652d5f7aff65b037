"""Extension features: feature importance, isoefficiency analysis, the
one PerformSplitII enquiry per level."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    InductionConfig,
    ScalParC,
    feature_importances,
    induce_serial,
    paper_dataset,
)
from repro.analysis import (
    efficiency_table,
    fit_isoefficiency,
    isoefficiency_curve,
    run_grid,
)
from repro.core.phases import PERFORMSPLIT2
from repro.datagen import generate_quest, make_dataset
from repro.runtime import TraceCollector


@pytest.fixture(scope="module")
def trained():
    train = paper_dataset(1500, "F2", seed=0)
    test = paper_dataset(700, "F2", seed=1)
    tree = induce_serial(train)
    return tree, train, test


# ---------------------------------------------------------------------------
# feature importance
# ---------------------------------------------------------------------------

def test_importances_sum_to_one_and_cover_used_attrs(trained):
    tree, train, _ = trained
    imp = feature_importances(tree)
    assert imp.shape == (len(train.schema),)
    assert imp.sum() == pytest.approx(1.0)
    # F2's concept is salary+age: together they must dominate
    salary = train.schema.index_of("salary")
    age = train.schema.index_of("age")
    assert imp[salary] + imp[age] > 0.8


def test_importances_zero_for_unused_attributes():
    ds = make_dataset(
        continuous={"x": [1.0, 2.0, 3.0, 4.0], "unused": [5.0] * 4},
        labels=[0, 0, 1, 1],
    )
    imp = feature_importances(induce_serial(ds))
    assert imp[1] == 0.0
    assert imp[0] == pytest.approx(1.0)


def test_importances_on_single_leaf():
    ds = make_dataset(continuous={"x": [1.0, 2.0]}, labels=[0, 0])
    imp = feature_importances(induce_serial(ds))
    assert np.all(imp == 0.0)


def test_importances_entropy_variant(trained):
    tree, _, _ = trained
    imp = feature_importances(tree, criterion="entropy")
    assert imp.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# isoefficiency
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def iso_grid():
    return run_grid(
        lambda n: paper_dataset(n, "F2", seed=1),
        sizes=[2_000, 8_000, 32_000],
        processor_counts=[2, 4, 8, 16],
    )


def test_efficiency_table_shape(iso_grid):
    table = efficiency_table(iso_grid)
    assert set(table) == {2_000, 8_000, 32_000}
    for n, row in table.items():
        assert set(row) == {2, 4, 8, 16}
        assert row[2] == pytest.approx(1.0)  # anchored at p=2
        # efficiency decreases with p at fixed N (within tolerance)
        assert row[16] <= row[4] + 0.05


def test_isoefficiency_curve_monotone(iso_grid):
    curve = isoefficiency_curve(iso_grid, target_efficiency=0.6)
    assert len(curve) >= 2
    ps = [p for p, _ in curve]
    ns = [n for _, n in curve]
    assert ps == sorted(ps)
    # sustaining efficiency at more processors needs at least as much data
    assert all(b >= a * 0.9 for a, b in zip(ns, ns[1:]))


def test_isoefficiency_fit_positive_exponent(iso_grid):
    fit = fit_isoefficiency(iso_grid, target_efficiency=0.6)
    assert fit.exponent > 0
    # prediction interpolates the curve reasonably
    p_mid, n_mid = fit.curve[len(fit.curve) // 2]
    assert fit.required_records(p_mid) == pytest.approx(n_mid, rel=0.75)


def test_isoefficiency_validation(iso_grid):
    with pytest.raises(ValueError):
        isoefficiency_curve(iso_grid, target_efficiency=0.0)
    with pytest.raises(ValueError):
        fit_isoefficiency(iso_grid, target_efficiency=1.0)  # unattainable


# ---------------------------------------------------------------------------
# PerformSplitII: one enquiry per level
# ---------------------------------------------------------------------------

def test_performsplit2_one_enquiry_per_level():
    """PerformSplitII batches every non-winning attribute's node-table
    requests into one enquiry: one request/answer all-to-all pair per
    level, however many attributes need it."""
    ds = paper_dataset(2000, "F2", seed=2)
    collector = TraceCollector()
    ScalParC(6, config=InductionConfig(max_depth=5), machine=None).fit(
        ds, trace=collector)
    per_level: dict[int, int] = {}
    for ev in collector.events_of(0):
        if ev.phase == PERFORMSPLIT2:
            per_level[ev.level] = per_level.get(ev.level, 0) + 1
    assert per_level and set(per_level.values()) == {2}, per_level


def test_scalparc_equals_serial_on_f6():
    ds = generate_quest(700, "F6", seed=4)
    ref = induce_serial(ds)
    for p in (2, 5):
        got = ScalParC(p, machine=None).fit(ds)
        assert got.tree.structurally_equal(ref)

"""Distributed attribute lists: construction, segmentation, reorder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.attribute_lists import LocalAttributeList, build_local_lists
from repro.datagen import AttributeSpec, generate_quest
from repro.runtime import TraceCollector, available_backends, run_spmd
from repro.sort import block_bounds, is_sorted_pairs

BACKENDS = [b for b in ("thread", "process", "cooperative", "tcp")
            if b in available_backends()]


def _mklist(values, nodes=None, kind="continuous", n_values=0):
    values = np.asarray(values, dtype=np.float64 if kind == "continuous"
                        else np.int32)
    n = len(values)
    if nodes is None:
        offsets = np.array([0, n], dtype=np.int64)
    else:
        counts = np.bincount(nodes)
        offsets = np.concatenate(([0], np.cumsum(counts)))
    return LocalAttributeList(
        spec=AttributeSpec("a", kind, n_values=n_values),
        attr_index=0,
        values=values,
        rids=np.arange(n, dtype=np.int64),
        labels=np.zeros(n, dtype=np.int64),
        offsets=offsets.astype(np.int64),
    )


def test_entry_nodes_from_offsets():
    alist = _mklist([1.0, 2.0, 3.0, 4.0, 5.0])
    alist.offsets = np.array([0, 2, 2, 5], dtype=np.int64)
    np.testing.assert_array_equal(alist.entry_nodes(), [0, 0, 2, 2, 2])
    assert alist.n_segments == 3
    assert alist.segment(1) == slice(2, 2)


def test_entry_nodes_cached_until_reorder():
    alist = _mklist([1.0, 2.0, 3.0, 4.0], nodes=[0, 0, 1, 1])
    first = alist.entry_nodes()
    assert alist.entry_nodes() is first          # cache hit: same object
    alist.reorder(np.array([1, 0, 1, 0], dtype=np.int64), 2)
    assert alist.entry_nodes() is not first      # reorder invalidates
    np.testing.assert_array_equal(alist.entry_nodes(), [0, 0, 1, 1])
    np.testing.assert_array_equal(alist.values, [2.0, 4.0, 1.0, 3.0])


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        LocalAttributeList(
            spec=AttributeSpec("a", "continuous"), attr_index=0,
            values=np.zeros(3), rids=np.zeros(2, dtype=np.int64),
            labels=np.zeros(3, dtype=np.int64),
            offsets=np.array([0, 3], dtype=np.int64),
        )
    with pytest.raises(ValueError):
        _mklist([1.0]).__class__(
            spec=AttributeSpec("a", "continuous"), attr_index=0,
            values=np.zeros(3), rids=np.zeros(3, dtype=np.int64),
            labels=np.zeros(3, dtype=np.int64),
            offsets=np.array([0, 2], dtype=np.int64),  # wrong span
        )


def test_reorder_groups_and_drops():
    alist = _mklist([10.0, 20.0, 30.0, 40.0, 50.0])
    alist.reorder(np.array([1, 0, -1, 1, 0]), n_next=2)
    np.testing.assert_array_equal(alist.values, [20.0, 50.0, 10.0, 40.0])
    np.testing.assert_array_equal(alist.rids, [1, 4, 0, 3])
    np.testing.assert_array_equal(alist.offsets, [0, 2, 4])


def test_reorder_is_stable_within_nodes():
    alist = _mklist([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    alist.reorder(np.array([0, 1, 0, 1, 0, 1]), n_next=2)
    np.testing.assert_array_equal(alist.values, [1.0, 3.0, 5.0, 2.0, 4.0, 6.0])


def test_reorder_to_empty():
    alist = _mklist([1.0, 2.0])
    alist.reorder(np.array([-1, -1]), n_next=3)
    assert alist.n_local == 0
    np.testing.assert_array_equal(alist.offsets, [0, 0, 0, 0])


def test_reorder_wrong_length_raises():
    alist = _mklist([1.0, 2.0])
    with pytest.raises(ValueError):
        alist.reorder(np.array([0]), n_next=1)


def test_nbytes_positive_and_shrinks():
    alist = _mklist(np.arange(100, dtype=np.float64))
    before = alist.nbytes()
    alist.reorder(np.array([0] * 50 + [-1] * 50), n_next=1)
    assert alist.nbytes() < before


@pytest.mark.parametrize("size", [1, 2, 5])
def test_build_local_lists_invariants(size):
    ds = generate_quest(200, "F2", seed=0)

    def worker(comm):
        lists, n_total = build_local_lists(comm, ds)
        out = []
        for alist in lists:
            out.append((
                alist.spec.name,
                alist.values.copy(),
                alist.rids.copy(),
                alist.labels.copy(),
            ))
        return n_total, out

    results = run_spmd(size, worker)
    assert all(r[0] == 200 for r in results)
    for a, spec in enumerate(ds.schema):
        values = np.concatenate([r[1][a][1] for r in results])
        rids = np.concatenate([r[1][a][2] for r in results])
        labels = np.concatenate([r[1][a][3] for r in results])
        # every record appears exactly once with its own value and label
        assert sorted(rids.tolist()) == list(range(200))
        np.testing.assert_array_equal(labels, ds.labels[rids])
        if spec.is_continuous:
            assert is_sorted_pairs(values, rids)  # presorted globally
            np.testing.assert_array_equal(values, ds.columns[a][rids])
        else:
            np.testing.assert_array_equal(rids, np.arange(200))  # original order


def _lists_worker(comm, ds):
    lists, _ = build_local_lists(comm, ds)
    return [(alist.values, alist.rids, alist.labels) for alist in lists]


@pytest.mark.parametrize("backend", BACKENDS)
def test_presorted_lists_are_the_global_lexsort_blocks(backend):
    """Every continuous list is exactly this rank's ⌈N/p⌉ block of the
    column's global (value, rid) order — values, rids, labels and their
    dtypes — whatever engine moved the entries."""
    ds = generate_quest(700, "F7", seed=3)
    size = 3
    results = run_spmd(size, _lists_worker, args=(ds,), backend=backend)
    rids = np.arange(ds.n_records, dtype=np.int64)
    for a in ds.schema.continuous_indices:
        column = np.asarray(ds.columns[a], dtype=np.float64)
        order = np.lexsort((rids, column))
        for rank in range(size):
            lo, hi = block_bounds(ds.n_records, size, rank)
            values, got_rids, labels = results[rank][a]
            assert (values.dtype, got_rids.dtype, labels.dtype) == (
                np.float64, np.int64, np.int64)
            np.testing.assert_array_equal(got_rids, order[lo:hi])
            np.testing.assert_array_equal(values, column[order[lo:hi]])
            np.testing.assert_array_equal(labels, ds.labels[order[lo:hi]])


@pytest.mark.parametrize("attributes", [
    ("salary", "elevel"),
    ("salary", "commission", "age", "car"),
    None,   # the full Quest schema: six continuous attributes
])
def test_presort_schedule_two_small_collectives_plus_two_alltoalls_per_column(
        attributes):
    """Presort's small collectives — the sample allgather and the count
    allreduce — are issued once whatever the number of attributes; each
    continuous column then costs its two data steps."""
    ds = generate_quest(400, "F2", seed=5, attributes=attributes)
    n_continuous = len(ds.schema.continuous_indices)
    collector = TraceCollector()
    run_spmd(3, _lists_worker, args=(ds,), trace=collector)
    for rank in range(3):
        kinds = [ev.kind for ev in collector.events_of(rank)]
        assert kinds == ["allgather", "allreduce"] \
            + ["alltoall", "alltoall"] * n_continuous

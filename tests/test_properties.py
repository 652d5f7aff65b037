"""Property-based invariants over the whole pipeline.

These go beyond the point tests: hypothesis generates datasets and
configurations, and we assert structural invariants any correct induction
must satisfy — count conservation, routing consistency, purity of
training-set fit, and parallel/serial agreement.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ScalParC, induce_serial
from repro.core import InductionConfig
from repro.datagen import random_dataset
from repro.tree.compile import KIND_LEAF


def _dataset(seed: int, n: int, dup: bool):
    return random_dataset(np.random.default_rng(seed), n, duplicate_heavy=dup)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 150), dup=st.booleans())
def test_count_conservation(seed, n, dup):
    """Internal-node class counts equal the sum of their children's, and
    the root covers the whole training set."""
    ds = _dataset(seed, n, dup)
    t = induce_serial(ds).compiled()
    assert t.n_records[0] == n
    np.testing.assert_array_equal(
        t.class_counts[0], np.bincount(ds.labels,
                                       minlength=ds.schema.n_classes)
    )
    for v in np.flatnonzero(t.kind != KIND_LEAF).tolist():
        kids = slice(t.first_child[v], t.first_child[v] + t.n_children[v])
        np.testing.assert_array_equal(t.class_counts[v],
                                      t.class_counts[kids].sum(axis=0))
        assert t.n_records[v] == t.n_records[kids].sum()
        assert (t.n_records[kids] > 0).all()
        assert (t.depths[kids] == t.depths[v] + 1).all()


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 150), dup=st.booleans())
def test_routing_consistent_with_counts(seed, n, dup):
    """Routing the training records through the tree reproduces each
    leaf's record count exactly."""
    ds = _dataset(seed, n, dup)
    tree = induce_serial(ds)
    preds = tree.predict_columns(ds.columns)
    assert len(preds) == n
    # total records reaching leaves (by routing) matches leaf bookkeeping
    t = tree.compiled()
    assert t.n_records[t.kind == KIND_LEAF].sum() == n
    np.testing.assert_array_equal(
        np.bincount(t.apply(np.column_stack(ds.columns)),
                    minlength=t.n_nodes)[t.kind == KIND_LEAF],
        t.n_records[t.kind == KIND_LEAF])


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 100))
def test_distinct_feature_vectors_fit_perfectly(seed, n):
    """With unlimited depth and all-distinct continuous values, the tree
    reproduces its training labels exactly."""
    rng = np.random.default_rng(seed)
    x = rng.permutation(n).astype(np.float64)  # all distinct
    labels = rng.integers(0, 2, n).astype(np.int32)
    from repro.datagen import make_dataset

    ds = make_dataset(continuous={"x": x.tolist()},
                      labels=labels.tolist())
    tree = induce_serial(ds)
    np.testing.assert_array_equal(tree.predict_columns(ds.columns), labels)


@settings(deadline=None, max_examples=12)
@given(
    seed=st.integers(0, 5_000),
    n=st.integers(2, 80),
    max_depth=st.one_of(st.none(), st.integers(0, 5)),
    min_split=st.integers(2, 10),
    criterion=st.sampled_from(["gini", "entropy"]),
    subsets=st.booleans(),
    p=st.sampled_from([2, 5]),
)
def test_parallel_serial_agreement_over_configs(
    seed, n, max_depth, min_split, criterion, subsets, p
):
    ds = _dataset(seed, n, dup=seed % 2 == 0)
    config = InductionConfig(
        max_depth=max_depth,
        min_split_records=min_split,
        criterion=criterion,
        categorical_binary_subsets=subsets,
    )
    ref = induce_serial(ds, config)
    got = ScalParC(p, config=config, machine=None).fit(ds)
    assert got.tree.structurally_equal(ref)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 100))
def test_depth_cap_respected(seed, n):
    ds = _dataset(seed, n, dup=False)
    for d in (0, 2):
        tree = induce_serial(ds, InductionConfig(max_depth=d))
        assert tree.depth <= d


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), n=st.integers(5, 120))
def test_pruning_only_merges(seed, n):
    """Pruned trees are 'ancestors' of the original: every pruned leaf's
    counts equal some original subtree's root counts."""
    from repro.tree import prune_pessimistic

    ds = _dataset(seed, n, dup=False)
    tree = induce_serial(ds)
    pruned = prune_pessimistic(tree)
    original_counts = {
        (node.depth, tuple(node.class_counts.tolist()))
        for node in tree.nodes()
    }
    for node in pruned.nodes():
        if node.kind == KIND_LEAF:
            key = (node.depth, tuple(node.class_counts.tolist()))
            assert key in original_counts


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 200),
    p=st.sampled_from([2, 3, 8]),
)
def test_modeled_stats_sane(seed, n, p):
    """Priced runs always report internally consistent statistics."""
    ds = _dataset(seed, n, dup=False)
    stats = ScalParC(p).fit(ds).stats
    assert stats.parallel_time >= stats.comp_time_max - 1e-12
    assert stats.comp_time_mean <= stats.comp_time_max + 1e-12
    assert stats.bytes_per_rank_max <= 2 * stats.total_bytes or p == 1
    assert stats.memory_per_rank_max > 0
    assert len(stats.memory_per_rank) == p

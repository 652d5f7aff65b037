"""FindSplitI/II phase internals: count prefixes, boundary handling,
coordinator-based categorical scoring, the BEST_SPLIT reduction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InductionConfig
from repro.core.attribute_lists import build_local_lists
from repro.core.findsplit import (
    KEEP_LAST,
    coordinator_of,
    global_best_splits,
    level_candidates,
    node_class_totals,
    score_categorical_cubes,
)
from repro.core.splits import (
    BEST_SPLIT,
    candidate_beats,
    pack_candidates,
)
from repro.datagen import generate_quest, make_dataset
from repro.runtime import run_spmd


def _best_split(comm, ds, candidate_nodes=(True,)):
    """Global best split of the root node over a one-attribute dataset:
    the level schedule's candidates, folded by BEST_SPLIT."""
    lists, _ = build_local_lists(comm, ds)
    totals = node_class_totals(comm, lists[0], 1, 2)
    rows, _ = level_candidates(comm, lists, totals,
                               np.array(candidate_nodes), InductionConfig())
    return global_best_splits(comm, rows)


def test_keep_last_exscan_carries_latest_nonempty():
    rows = [
        np.array([[1.0, 10.0]]),   # rank 0 has an entry (value 10)
        np.array([[0.0, 0.0]]),    # rank 1 empty
        np.array([[1.0, 30.0]]),   # rank 2 has an entry (value 30)
    ]
    out = KEEP_LAST.exscan(rows)
    assert out[0][0, 0] == 0.0           # rank 0: no predecessor
    assert out[1][0].tolist() == [1.0, 10.0]
    assert out[2][0].tolist() == [1.0, 10.0]  # rank 1 was empty


def test_coordinator_assignment_round_robin():
    assert coordinator_of(0, 4) == 0
    assert coordinator_of(5, 4) == 1
    assert coordinator_of(3, 2) == 1


def test_candidate_beats_lexicographic():
    a = np.array([0.5, 1.0, 2.0])
    assert candidate_beats(np.array([0.4, 9.0, 9.0]), a)
    assert candidate_beats(np.array([0.5, 0.0, 9.0]), a)
    assert candidate_beats(np.array([0.5, 1.0, 1.5]), a)
    assert not candidate_beats(a, a)
    assert not candidate_beats(np.array([0.6, 0.0, 0.0]), a)


def test_best_split_reduce_elementwise():
    a = np.array([[0.5, 1.0, 2.0], [np.inf, np.inf, np.inf]])
    b = np.array([[0.4, 2.0, 3.0], [0.9, 0.0, 1.0]])
    out = BEST_SPLIT.reduce([a, b])
    np.testing.assert_array_equal(out[0], [0.4, 2.0, 3.0])
    np.testing.assert_array_equal(out[1], [0.9, 0.0, 1.0])
    ident = BEST_SPLIT.identity_like(a)
    assert np.all(np.isinf(ident))


def test_pack_candidates_initialized_to_inf():
    rows = pack_candidates(3)
    assert rows.shape == (3, 3)
    assert np.all(np.isinf(rows))


@pytest.mark.parametrize("size", [1, 2, 4])
def test_node_class_totals_matches_bincount(size):
    ds = generate_quest(150, "F2", seed=1)

    def worker(comm):
        lists, _ = build_local_lists(comm, ds)
        return node_class_totals(comm, lists[0], 1, 2)

    totals = run_spmd(size, worker)[0]
    np.testing.assert_array_equal(
        totals[0], np.bincount(ds.labels, minlength=2)
    )


@pytest.mark.parametrize("size", [1, 2, 3, 5])
def test_continuous_candidates_match_serial_scan(size):
    """The distributed scan must find the same (score, threshold) as an
    explicit serial enumeration over sorted positions."""
    ds = make_dataset(
        continuous={"x": [1.0, 1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 9.0]},
        labels=[0, 0, 0, 1, 1, 1, 0, 1],
    )
    config = InductionConfig()
    best = run_spmd(size, _best_split, args=(ds,))[0]
    # serial enumeration
    from repro.baselines.serial_reference import _continuous_candidate

    expected = _continuous_candidate(
        ds.columns[0], np.arange(8, dtype=np.int64),
        ds.labels.astype(np.int64), np.bincount(ds.labels, minlength=2),
        config,
    )
    assert best[0, 0] == expected[0]
    assert best[0, 2] == expected[1]


def test_continuous_candidates_no_valid_position():
    ds = make_dataset(continuous={"x": [4.0, 4.0, 4.0]}, labels=[0, 1, 0])
    best = run_spmd(3, _best_split, args=(ds,))[0]
    assert np.isinf(best[0, 0])


def test_duplicate_run_spanning_all_ranks_rejected():
    """Value 7 fills ranks 0-2 entirely; candidates may only appear at the
    first global 7 (invalid: left empty) and at value 8."""
    ds = make_dataset(
        continuous={"x": [7.0] * 9 + [8.0]},
        labels=[0] * 9 + [1],
    )
    best = run_spmd(3, _best_split, args=(ds,))[0]
    assert best[0, 2] == 8.0  # the only valid threshold
    assert best[0, 0] == pytest.approx(0.0)


@pytest.mark.parametrize("size", [1, 2, 4])
def test_categorical_candidates_scored_on_coordinator(size):
    ds = make_dataset(
        categorical={"g": ([0, 0, 1, 1, 2, 2], 3)},
        labels=[0, 0, 1, 1, 0, 1],
    )

    def worker(comm):
        lists, _ = build_local_lists(comm, ds)
        totals = node_class_totals(comm, lists[0], 1, 2)
        rows, cat_state = level_candidates(
            comm, lists, totals, np.array([True]), InductionConfig()
        )
        state = cat_state.get(0, {})
        return rows, {k: v[0] for k, v in state.items()}, comm.rank

    results = run_spmd(size, worker)
    coord = coordinator_of(0, size)
    from repro.core.criteria import split_score_multiway

    matrix = np.array([[2, 0], [0, 2], [1, 1]])
    for rows, state, rank in results:
        if rank == coord:
            assert rows[0, 0] == pytest.approx(split_score_multiway(matrix))
            np.testing.assert_array_equal(state[0], matrix)
        else:
            assert np.isinf(rows[0, 0])
            assert state == {}


def test_candidate_mask_suppresses_terminal_nodes():
    ds = make_dataset(continuous={"x": [1.0, 2.0, 3.0]}, labels=[0, 1, 0])
    best = run_spmd(2, _best_split, args=(ds, (False,)))[0]
    assert np.isinf(best[0, 0])


@pytest.mark.parametrize("mode", ["fast", "reference"])
@pytest.mark.parametrize("subsets", [False, True])
def test_score_categorical_cubes_equals_per_node_scoring(subsets, mode,
                                                        request):
    """The one batched categorical scorer is bit-identical to calling
    ``best_categorical_split`` node by node, under both categorical
    policies, on the fast kernels and on their oracles — including the
    no-valid-split (< 2 occurring values) and all-empty matrices."""
    from repro.core.criteria import best_categorical_split

    rng = np.random.default_rng(17)
    cubes = rng.integers(0, 6, size=(12, 5, 3))
    cubes[0] = 0                      # empty node
    cubes[1, 1:] = 0                  # one occurring value: no split
    cubes[2, [0, 3]] = 0              # held-out values
    config = InductionConfig(categorical_binary_subsets=subsets,
                             criterion="entropy")
    if mode == "reference":
        request.getfixturevalue("kernel_oracles")
    scores, masks = score_categorical_cubes(cubes, config)
    expect = [best_categorical_split(
        matrix, config.criterion, binary_subsets=subsets,
        exhaustive_limit=config.subset_exhaustive_limit,
    ) for matrix in cubes]
    assert scores.tolist() == [score for score, _ in expect]
    assert np.isinf(scores[:2]).all() and np.isfinite(scores[2:]).all()
    for got, (_, want) in zip(masks, expect):
        if subsets:
            np.testing.assert_array_equal(got, want)
        else:
            assert got is None and want is None

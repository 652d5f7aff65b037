"""Segment-vectorized kernels: every kernel ≡ its scalar oracle
(``tests/kernel_oracles.py``) on arbitrary segment layouts, and swapping
the oracles in is invisible end to end (same trees, same collective
trace digests).

The generators deliberately produce the degenerate shapes the induction
loop sees in practice: empty segments, single-entry segments,
single-class segments, nodes with no candidates, duplicate-heavy value
runs, and id ranges beyond the int16 radix window.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.kernels import forced_kernel_mode
from repro.runtime import TraceCollector

from tests import kernel_oracles as oracles
from tests.conftest import assert_trees_equal

# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------

#: per-segment sizes, including empty segments
seg_sizes_st = st.lists(st.integers(0, 7), min_size=1, max_size=8)


def _layout(sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, per-entry nodes) of a CSR layout with the given sizes."""
    offsets = np.concatenate(
        ([0], np.cumsum(np.asarray(sizes, dtype=np.int64)))
    )
    nodes = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    return offsets, nodes


def test_kernel_mode_default_and_validation():
    """``fast`` is the only kernel family: pinning it swaps nothing, and
    any other name is refused."""
    before = {name: getattr(kernels, name) for name in oracles.ORACLES}
    with forced_kernel_mode("fast"):
        assert {name: getattr(kernels, name)
                for name in oracles.ORACLES} == before
    for mode in ("reference", "turbo"):
        with pytest.raises(ValueError):
            with forced_kernel_mode(mode):
                pass


# ---------------------------------------------------------------------------
# segment_class_prefix
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(seg_sizes_st, st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_segment_class_prefix_matches_reference(sizes, n_classes, seed):
    rng = np.random.default_rng(seed)
    offsets, nodes = _layout(sizes)
    labels = rng.integers(0, n_classes, int(offsets[-1])).astype(np.int64)
    fast = kernels.segment_class_prefix(labels, offsets, n_classes,
                                        nodes=nodes)
    ref = oracles.segment_class_prefix_reference(labels, offsets, n_classes)
    np.testing.assert_array_equal(fast, ref)
    at = np.flatnonzero(rng.random(len(labels)) < 0.4)
    np.testing.assert_array_equal(
        kernels.segment_class_prefix(labels, offsets, n_classes,
                                     nodes=nodes, at=at),
        ref[at])


def test_segment_class_prefix_single_class_and_empty():
    offsets = np.array([0, 0, 3, 3], dtype=np.int64)
    labels = np.zeros(3, dtype=np.int64)  # single-class segment
    fast = kernels.segment_class_prefix(labels, offsets, 2)
    ref = oracles.segment_class_prefix_reference(labels, offsets, 2)
    np.testing.assert_array_equal(fast, ref)
    np.testing.assert_array_equal(fast[:, 0], [0, 1, 2])
    # fully empty layout
    empty = np.array([0, 0], dtype=np.int64)
    out = kernels.segment_class_prefix(labels[:0], empty, 3)
    assert out.shape == (0, 3)


# ---------------------------------------------------------------------------
# boundary_valid_mask
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(seg_sizes_st, st.integers(0, 2 ** 31 - 1))
def test_boundary_valid_mask_matches_reference(sizes, seed):
    rng = np.random.default_rng(seed)
    offsets, nodes = _layout(sizes)
    m = len(sizes)
    # duplicate-heavy sorted-within-segment values
    values = np.concatenate([
        np.sort(rng.integers(0, 4, s).astype(np.float64))
        for s in sizes
    ]) if offsets[-1] else np.empty(0, dtype=np.float64)
    candidate_nodes = rng.random(m) < 0.8
    has_pred = rng.random(m) < 0.5
    pred_val = rng.integers(-1, 4, m).astype(np.float64)
    args = (values, nodes, offsets, candidate_nodes, has_pred, pred_val)
    np.testing.assert_array_equal(
        kernels.boundary_valid_mask(*args),
        oracles.boundary_valid_mask_reference(*args),
    )


#: values the mask must order exactly like the body it replaced
_edge_values = st.sampled_from(
    [np.nan, np.inf, -np.inf, -1.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def _valid_mask_inputs(draw):
    """A segment layout with NaN / ±inf values (unsorted: the mask must
    not rely on order) and per-node candidate / predecessor flags."""
    sizes = draw(seg_sizes_st)
    offsets, nodes = _layout(sizes)
    m, n = len(sizes), int(offsets[-1])
    values = np.array(draw(st.lists(_edge_values, min_size=n, max_size=n)),
                      dtype=np.float64)
    flags = st.lists(st.booleans(), min_size=m, max_size=m)
    candidate_nodes = np.array(draw(st.one_of(
        flags, st.just([True] * m))), dtype=bool)
    has_pred = np.array(draw(flags), dtype=bool)
    pred_val = np.array(draw(st.lists(_edge_values, min_size=m,
                                      max_size=m)), dtype=np.float64)
    return values, nodes, offsets, candidate_nodes, has_pred, pred_val


@settings(deadline=None, max_examples=300)
@given(_valid_mask_inputs())
def test_boundary_valid_mask_matches_prior_body_with_nan_and_inf(args):
    """The single-``greater`` mask is bit-identical to the vectorized body
    it replaced, NaN predecessors (read as −inf) and ±inf included."""
    got = kernels.boundary_valid_mask(*args)
    want = oracles.boundary_valid_mask_prior_reference(*args)
    assert got.dtype == want.dtype == np.bool_
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# class_boundary_cuts
# ---------------------------------------------------------------------------

def _class_boundary_rule(valid, values, labels, offsets):
    """The pruning rule one segment and one value group at a time: the
    cut opening group g is dropped iff groups g - 1 and g are pure in
    one class and neither holds its segment's first or last entry."""
    keep = valid.copy()
    for k in range(len(offsets) - 1):
        lo, hi = int(offsets[k]), int(offsets[k + 1])
        groups = []                                   # [start, end)
        for i in range(lo, hi):
            if i == lo or values[i] != values[i - 1]:
                groups.append([i, i + 1])
            else:
                groups[-1][1] = i + 1
        for g in range(2, len(groups) - 1):
            a, b = groups[g - 1][0], groups[g][1]
            if len(set(labels[a:b].tolist())) == 1:
                keep[groups[g][0]] = False
    return keep


@st.composite
def _boundary_fragments(draw):
    """One rank's continuous fragment as FindSplitII sees it: segments
    (some empty) of sorted values with long duplicate groups, labels in
    long pure-class runs that often touch a segment's edge, the global
    counts before it (``below``) and after it, a KEEP_LAST predecessor
    row per node that may continue the segment's first group, and a
    random candidate set."""
    sizes = draw(st.lists(st.integers(0, 16), min_size=1, max_size=6))
    n_classes = draw(st.integers(2, 4))
    distinct = draw(st.sampled_from([1, 2, 3, 6, None]))   # None: no ties
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    offsets, nodes = _layout(sizes)
    n, m = int(offsets[-1]), len(sizes)
    if distinct is None:
        values = np.arange(n, dtype=np.float64)
    else:
        values = np.concatenate(
            [np.sort(rng.integers(0, distinct, s)).astype(np.float64)
             for s in sizes]) if n else np.empty(0, dtype=np.float64)
    runs = []
    while sum(map(len, runs)) < n:
        runs.append(np.full(int(rng.integers(1, 9)),
                            rng.integers(0, n_classes)))
    labels = (np.concatenate(runs)[:n] if n else np.empty(0)).astype(np.int64)
    below = rng.integers(0, 4, (m, n_classes)).astype(np.int64)
    below[rng.random(m) < 0.3] = 0
    after = rng.integers(0, 4, (m, n_classes)).astype(np.int64)
    local = np.bincount(nodes * n_classes + labels,
                        minlength=m * n_classes).reshape(m, n_classes)
    totals = below + local + after
    pred = np.zeros((m, 2))
    pred[:, 0] = below.sum(axis=1) > 0
    firsts = values[np.minimum(offsets[:-1], max(n - 1, 0))] if n \
        else np.zeros(m)
    pred[:, 1] = firsts - rng.integers(0, 2, m)      # may equal: a straddle
    candidate_nodes = rng.random(m) < 0.85
    return values, labels, offsets, nodes, below, totals, pred, \
        candidate_nodes


@settings(deadline=None, max_examples=150)
@given(_boundary_fragments())
def test_class_boundary_cuts_keep_a_subset_by_the_rule(fragment):
    values, labels, offsets, nodes, _b, _t, pred, candidate_nodes = fragment
    valid = kernels.boundary_valid_mask(values, nodes, offsets,
                                        candidate_nodes, pred[:, 0] > 0,
                                        pred[:, 1])
    keep = kernels.class_boundary_cuts(valid, values, labels, offsets)
    assert not (keep & ~valid).any()                  # kept ⊆ valid
    np.testing.assert_array_equal(
        keep, _class_boundary_rule(valid, values, labels, offsets))


@settings(deadline=None, max_examples=150)
@given(_boundary_fragments(), st.sampled_from(["gini", "entropy"]))
def test_class_boundary_scan_rows_equal_the_full_scan(fragment, criterion):
    """FindSplitII's local rows from the kept cuts equal, bit for bit,
    the rows of scoring every valid cut (the oracle keeps them all), and
    the ledger books the same rows either way: the full scan."""
    from repro.core import InductionConfig
    from repro.core.attribute_lists import LocalAttributeList
    from repro.core.findsplit import _scan_candidates
    from repro.datagen.schema import AttributeSpec
    from repro.perfmodel import RankTracker
    from repro.runtime.communicator import SelfCommunicator

    values, labels, offsets, _nodes, below, totals, pred, candidate_nodes \
        = fragment
    alist = LocalAttributeList(
        spec=AttributeSpec(name="x", kind="continuous"), attr_index=3,
        values=values, rids=np.arange(len(values), dtype=np.int64),
        labels=labels, offsets=offsets,
    )
    config = InductionConfig(criterion=criterion)

    def scan(cuts):
        ledger = RankTracker()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "class_boundary_cuts", cuts)
            rows = _scan_candidates(SelfCommunicator(ledger), alist, totals,
                                    candidate_nodes, config, below, pred)
        return rows, ledger.rows

    rows, ledger = scan(kernels.class_boundary_cuts)
    full_rows, full_ledger = scan(oracles.class_boundary_cuts_reference)
    assert rows.tobytes() == full_rows.tobytes()
    assert ledger == full_ledger


def test_class_boundary_cuts_keep_the_edge_groups():
    """One segment, one class throughout: only the cuts next to the
    segment's first and last groups survive; with duplicates or without,
    and a class change brings its cut back."""
    offsets = np.array([0, 8], dtype=np.int64)
    labels = np.zeros(8, dtype=np.int64)
    valid = np.ones(8, dtype=bool)
    valid[0] = False
    distinct = np.arange(8, dtype=np.float64)
    np.testing.assert_array_equal(
        np.flatnonzero(kernels.class_boundary_cuts(valid, distinct, labels,
                                                   offsets)), [1, 7])
    dups = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.float64)
    valid = np.r_[False, dups[1:] > dups[:-1]]
    np.testing.assert_array_equal(
        np.flatnonzero(kernels.class_boundary_cuts(valid, dups, labels,
                                                   offsets)), [2, 6])
    labels[4:] = 1                    # groups {0,1} | {2,3} of class 0 …
    np.testing.assert_array_equal(
        np.flatnonzero(kernels.class_boundary_cuts(valid, dups, labels,
                                                   offsets)), [2, 4, 6])


# ---------------------------------------------------------------------------
# split_scores
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(st.integers(0, 30), st.integers(1, 4),
       st.sampled_from(["gini", "entropy"]), st.integers(0, 2 ** 31 - 1))
def test_split_scores_match_reference(m, n_classes, criterion, seed):
    rng = np.random.default_rng(seed)
    totals = rng.integers(0, 20, (m, n_classes)).astype(np.int64)
    left = np.minimum(
        rng.integers(0, 20, (m, n_classes)).astype(np.int64), totals
    )
    fast = kernels.split_scores(left, totals, criterion)
    ref = oracles.split_scores_reference(left, totals, criterion)
    np.testing.assert_array_equal(fast, ref)  # bitwise, not approx


# ---------------------------------------------------------------------------
# segment_argmin
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=80)
@given(
    st.lists(
        # (group, score, tiebreak) with few distinct scores to force ties
        st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 9)),
        min_size=0, max_size=60,
    )
)
def test_segment_argmin_matches_reference(rows):
    rows.sort(key=lambda t: t[0])  # the non-decreasing groups contract
    groups = np.array([g for g, _s, _t in rows], dtype=np.int64)
    scores = np.array([float(s) for _g, s, _t in rows])
    tiebreak = np.array([float(t) for _g, _s, t in rows])
    f_g, f_s, f_t = kernels.segment_argmin(groups, scores, tiebreak)
    r_g, r_s, r_t = oracles.segment_argmin_reference(groups, scores, tiebreak)
    np.testing.assert_array_equal(f_g, r_g)
    np.testing.assert_array_equal(f_s, r_s)
    np.testing.assert_array_equal(f_t, r_t)


def test_segment_argmin_tiebreaks_toward_smaller_threshold():
    groups = np.array([2, 2, 2, 7, 7], dtype=np.int64)
    scores = np.array([0.5, 0.5, 0.9, 1.0, 1.0])
    thr = np.array([3.0, 1.0, 0.0, 2.0, 5.0])
    g, s, t = kernels.segment_argmin(groups, scores, thr)
    np.testing.assert_array_equal(g, [2, 7])
    np.testing.assert_array_equal(s, [0.5, 1.0])
    np.testing.assert_array_equal(t, [1.0, 2.0])


# ---------------------------------------------------------------------------
# multiway_scores
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(st.integers(0, 12), st.integers(1, 5), st.integers(1, 3),
       st.sampled_from(["gini", "entropy"]), st.integers(0, 2 ** 31 - 1))
def test_multiway_scores_match_reference(m, n_values, n_classes, criterion,
                                         seed):
    rng = np.random.default_rng(seed)
    cubes = rng.integers(0, 6, (m, n_values, n_classes)).astype(np.int64)
    # force some all-empty and single-value nodes (must come out inf)
    if m >= 2:
        cubes[0] = 0
        cubes[1, 1:] = 0
    fast = kernels.multiway_scores(cubes, criterion)
    ref = oracles.multiway_scores_reference(cubes, criterion)
    np.testing.assert_array_equal(fast, ref)  # bitwise, inf included


# ---------------------------------------------------------------------------
# stable_regroup
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(-1, 6), min_size=0, max_size=80),
       st.integers(7, 9))
def test_stable_regroup_matches_reference(ids, n_next):
    new_nodes = np.array(ids, dtype=np.int64)
    f_take, f_off = kernels.stable_regroup(new_nodes, n_next)
    r_take, r_off = oracles.stable_regroup_reference(new_nodes, n_next)
    np.testing.assert_array_equal(f_take, r_take)
    np.testing.assert_array_equal(f_off, r_off)


def test_stable_regroup_beyond_int16_range():
    """n_next past the int16 radix window must fall back correctly."""
    rng = np.random.default_rng(5)
    n_next = (1 << 15) + 100
    new_nodes = rng.integers(-1, n_next, 5000).astype(np.int64)
    f_take, f_off = kernels.stable_regroup(new_nodes, n_next)
    r_take, r_off = oracles.stable_regroup_reference(new_nodes, n_next)
    np.testing.assert_array_equal(f_take, r_take)
    np.testing.assert_array_equal(f_off, r_off)
    assert f_off[-1] == (new_nodes >= 0).sum()


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("n_next", [40_000, 70_000])
def test_stable_regroup_past_the_uint16_key_matches_lexsort(n_next, dtype):
    """More next-level nodes than a 16-bit key holds: the two-pass uint16
    radix plan equals a lexsort by (id, position) over the kept ids, and
    the -1 ids are dropped (the int32 ids the node table hands over, and
    int64 ones)."""
    rng = np.random.default_rng(40)
    new_nodes = rng.integers(-1, n_next, 60_000).astype(dtype)
    new_nodes[rng.random(len(new_nodes)) < 0.2] = -1
    take, offsets = kernels.stable_regroup(new_nodes, n_next)
    kept = np.flatnonzero(new_nodes >= 0)
    want = kept[np.lexsort((kept, new_nodes[kept]))]
    np.testing.assert_array_equal(take, want)
    np.testing.assert_array_equal(
        offsets, np.concatenate(([0], np.cumsum(
            np.bincount(new_nodes[kept], minlength=n_next)))))
    assert offsets.dtype == np.int64 and len(offsets) == n_next + 1


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("n_next", [65_534, 65_535, 65_536, (1 << 17) + 3])
def test_stable_regroup_offsets_at_the_key_width_edges(n_next, dtype):
    """The offsets are searched off the sorted key for every key
    0 … n_next: at 65 535 next-level nodes the uint16 key is full (key
    n_next = 65 535 is its largest value), one more takes the two-half
    uint32 path.  The last node and dropped ids are both present."""
    rng = np.random.default_rng(n_next)
    new_nodes = rng.integers(-1, n_next, 20_000).astype(dtype)
    new_nodes[:3] = [n_next - 1, -1, 0]
    new_nodes[-2:] = [n_next - 1, n_next - 2]
    take, offsets = kernels.stable_regroup(new_nodes, n_next)
    r_take, r_off = oracles.stable_regroup_reference(new_nodes, n_next)
    np.testing.assert_array_equal(take, r_take)
    np.testing.assert_array_equal(offsets, r_off)
    assert offsets.dtype == np.int64 and len(offsets) == n_next + 1
    assert offsets[-1] - offsets[-2] == (new_nodes == n_next - 1).sum()


@pytest.mark.parametrize("n_next", [0, 1, 5, 65_535, 70_000])
def test_stable_regroup_all_dropped_and_empty(n_next):
    """Every id dropped, and no entry at all: an empty plan and
    ``n_next + 1`` zero offsets, as the reference gives."""
    for new_nodes in (np.full(7, -1, dtype=np.int32),
                      np.empty(0, dtype=np.int64)):
        take, offsets = kernels.stable_regroup(new_nodes, n_next)
        r_take, r_off = oracles.stable_regroup_reference(new_nodes, n_next)
        assert len(take) == 0 and len(r_take) == 0
        np.testing.assert_array_equal(offsets, r_off)
        np.testing.assert_array_equal(offsets, np.zeros(n_next + 1))
        assert offsets.dtype == np.int64


def test_stable_regroup_is_stable_within_groups():
    new_nodes = np.array([1, 0, 1, -1, 0, 1], dtype=np.int64)
    take, offsets = kernels.stable_regroup(new_nodes, 2)
    np.testing.assert_array_equal(take, [1, 4, 0, 2, 5])
    np.testing.assert_array_equal(offsets, [0, 2, 5])


# ---------------------------------------------------------------------------
# consumers: reorder / local children / reshard against their oracles
# ---------------------------------------------------------------------------

def _random_alist(rng, sizes, categorical=False, n_values=4):
    from repro.core.attribute_lists import LocalAttributeList
    from repro.datagen.schema import AttributeSpec

    offsets, _nodes = _layout(sizes)
    n = int(offsets[-1])
    if categorical:
        spec = AttributeSpec(name="c", kind="categorical", n_values=n_values)
        values = rng.integers(0, n_values, n).astype(np.int32)
    else:
        spec = AttributeSpec(name="x", kind="continuous")
        values = np.concatenate([
            np.sort(rng.normal(0, 1, s)) for s in sizes
        ]) if n else np.empty(0)
    return LocalAttributeList(
        spec=spec, attr_index=0, values=values,
        rids=rng.permutation(n).astype(np.int64),
        labels=rng.integers(0, 2, n).astype(np.int64),
        offsets=offsets,
    )


@pytest.mark.parametrize("n_next", [1, 3, 7])
def test_reorder_fast_equals_reference(n_next, monkeypatch):
    rng = np.random.default_rng(11)
    sizes = [5, 0, 9, 1, 4]
    n_local = sum(sizes)
    new_nodes = rng.integers(-1, n_next, n_local).astype(np.int64)
    outputs = []
    for regroup in (kernels.stable_regroup, oracles.stable_regroup_reference):
        monkeypatch.setattr(kernels, "stable_regroup", regroup)
        alist = _random_alist(np.random.default_rng(11), sizes)
        alist.reorder(new_nodes.copy(), n_next)
        outputs.append((alist.values, alist.rids, alist.labels,
                        alist.offsets))
    for a, b in zip(*outputs):
        np.testing.assert_array_equal(a, b)


def test_local_children_categorical_fast_equals_reference():
    from repro.core.splitter import LevelDecisions, _local_children

    rng = np.random.default_rng(13)
    sizes = [6, 0, 8, 3]
    m = len(sizes)
    alist = _random_alist(rng, sizes, categorical=True, n_values=4)
    splitting = np.array([True, True, False, True])
    decisions = LevelDecisions(
        splitting=splitting,
        winner_attr=np.where(splitting, 0, -1),
        threshold=np.full(m, np.nan),
        cat_layouts={k: rng.permutation(4).astype(np.int64)
                     for k in np.nonzero(splitting)[0]},
        child_base=np.arange(m, dtype=np.int64) * 4,
        n_next=4 * m,
    )
    fast = _local_children(alist, decisions)
    oracle = oracles.categorical_children_reference(alist, decisions)
    np.testing.assert_array_equal(fast[0], oracle[0])
    np.testing.assert_array_equal(fast[1], oracle[1])


@pytest.mark.parametrize("old_size,new_size", [(3, 2), (2, 5), (4, 1)])
def test_reshard_fast_equals_reference(old_size, new_size):
    from repro.core.attribute_lists import _reshard_one_attribute
    from repro.datagen.schema import AttributeSpec

    rng = np.random.default_rng(17)
    spec = AttributeSpec(name="x", kind="continuous")
    m = 4
    fragments = []
    for _ in range(old_size):
        sizes = rng.integers(0, 6, m)
        offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        n = int(offsets[-1])
        fragments.append((
            rng.normal(0, 1, n),
            rng.integers(0, 10_000, n).astype(np.int64),
            rng.integers(0, 2, n).astype(np.int64),
            offsets,
        ))
    for rank in range(new_size):
        outs = [reshard(spec, 0, fragments, rank, new_size)
                for reshard in (_reshard_one_attribute,
                                oracles.reshard_one_attribute_reference)]
        for field in ("values", "rids", "labels", "offsets"):
            np.testing.assert_array_equal(
                getattr(outs[0], field), getattr(outs[1], field)
            )


# ---------------------------------------------------------------------------
# end to end: swapping the oracles in is invisible (trees + trace digests)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("split_mode", ["exact", "voted"])
def test_fit_reference_mode_is_bit_identical(request, split_mode):
    """A full parallel fit on the oracle kernels must match the fast run
    event for event: same tree, same per-rank collective digests — the
    strongest statement that the kernels are a swap, not an algorithm
    change."""
    from repro.core import InductionConfig, ScalParC
    from repro.datagen import generate_quest

    ds = generate_quest(300, "F2", seed=7)
    config = InductionConfig(split_mode=split_mode)

    def run():
        tc = TraceCollector()
        result = ScalParC(n_processors=3, config=config, machine=None,
                          backend="thread").fit(ds, trace=tc)
        return result, tc

    res_fast, tc_fast = run()
    request.getfixturevalue("kernel_oracles")
    res_ref, tc_ref = run()
    assert_trees_equal(res_fast.tree, res_ref.tree,
                       f"(kernel oracles, {split_mode})")
    for rank in range(3):
        fast_events = tc_fast.events_of(rank)
        ref_events = tc_ref.events_of(rank)
        assert len(fast_events) == len(ref_events)
        for a, b in zip(fast_events, ref_events):
            assert (a.op, a.payload_digest, a.result_digest, a.phase,
                    a.level) == \
                   (b.op, b.payload_digest, b.result_digest, b.phase,
                    b.level)

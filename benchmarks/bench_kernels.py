"""Experiment E6 — end-to-end and hot-kernel wall-clock throughput.

§5's headline is that "large classification problems can be solved
quickly" — here that translates to real (not modeled) wall time of the
simulated pipeline and of its hot kernels: the gini candidate scan, the
parallel sample sort, distributed hash-table update/enquire, full
induction, and vectorized prediction.  These are genuine pytest-benchmark
measurements (multiple rounds).
"""

from __future__ import annotations

import json
import time

import numpy as np
from conftest import RESULTS_DIR, SCALE, dataset_factory, emit

from repro import ScalParC, induce_serial
from repro.core import kernels
from repro.core.criteria import best_categorical_split, split_score_from_left
from repro.core.kernels import forced_kernel_mode
from repro.datagen import paper_dataset
from repro.hashing import DistributedNodeTable
from repro.runtime import run_spmd
from repro.sort import parallel_sample_sort
from repro.tree import predict_columns_recursive

N_KERNEL = int(1_000_000 * SCALE)
N_TRAIN = int(20_000 * SCALE)


def _best_of(fn, rounds=5):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _merge_kernel_rows(rows, text_lines, replaced_kernels):
    """Append ``rows`` to the BENCH_kernels trajectory, dropping stale
    rows of the kernels being re-measured, and re-emit the artifact."""
    prior_rows, prior_text = [], ""
    path = RESULTS_DIR / "BENCH_kernels.json"
    if path.exists():
        record = json.loads(path.read_text())
        prior_rows = [r for r in (record.get("data") or [])
                      if r.get("kernel") not in replaced_kernels]
        prior_text = "\n".join(
            line for line in record.get("text", "").splitlines()
            if not any(line.startswith(k) for k in replaced_kernels)
        ).rstrip()
    text = (prior_text + "\n" if prior_text else "") + "\n".join(text_lines)
    emit("BENCH_kernels", text, data=prior_rows + rows)


def test_gini_scan_throughput(benchmark):
    """The FindSplitII inner loop: split scores for 1M candidate rows."""
    rng = np.random.default_rng(0)
    totals = np.array([N_KERNEL // 2, N_KERNEL - N_KERNEL // 2])
    left = np.empty((N_KERNEL, 2), dtype=np.int64)
    left[:, 0] = rng.integers(0, totals[0], N_KERNEL)
    left[:, 1] = rng.integers(0, totals[1], N_KERNEL)
    out = benchmark(lambda: split_score_from_left(left, totals))
    assert out.shape == (N_KERNEL,)


def test_entry_nodes_cache(benchmark):
    """`LocalAttributeList.entry_nodes()` is asked for many times per
    attribute per level; it is now cached between `reorder()` calls, so
    this measures the amortized (cache-hit) cost.  Before caching, every
    call paid the full O(n_local) `np.repeat` expansion — on this 1M-entry
    list the hit path is ~1000× cheaper than the rebuild, which the
    benchmark asserts loosely by touching the same object repeatedly."""
    from repro.core.attribute_lists import LocalAttributeList
    from repro.datagen.schema import AttributeSpec

    n, n_seg = N_KERNEL, 64
    bounds = np.linspace(0, n, n_seg + 1).astype(np.int64)
    alist = LocalAttributeList(
        spec=AttributeSpec(name="c0", kind="continuous"),
        attr_index=0,
        values=np.zeros(n), rids=np.arange(n, dtype=np.int64),
        labels=np.zeros(n, dtype=np.int64), offsets=bounds,
    )

    def hot_loop():
        # FindSplit-like access pattern: many reads, no reorder between
        total = 0
        for _ in range(20):
            total += alist.entry_nodes()[-1]
        return int(total)

    assert benchmark(hot_loop) == 20 * (n_seg - 1)
    first = alist.entry_nodes()
    assert alist.entry_nodes() is first          # cache hit: same object
    alist.reorder(np.zeros(n, dtype=np.int64), 1)
    assert alist.entry_nodes() is not first      # reorder invalidates


def test_excl_prefix_kernel_before_after(benchmark):
    """The FindSplitII exclusive per-class prefix: the per-class Python
    loop it shipped with versus the single 2-D one-hot cumsum that
    replaced it.  Both are integer math over the same arrays, so the
    outputs must be bit-identical; the vectorized kernel drops the
    n_classes Python-level passes (and their temporaries) in favor of one
    C-level reduction over a row-contiguous (n_classes, n) one-hot.
    Timings for both variants land in ``BENCH_kernels.json`` as the start
    of the kernel trajectory; measured at the repo's dominant shape
    (Quest labels are binary)."""
    rng = np.random.default_rng(3)
    n, n_classes = N_KERNEL, 2
    labels = rng.integers(0, n_classes, n).astype(np.int64)

    def excl_looped():
        excl = np.empty((n, n_classes), dtype=np.int64)
        for j in range(n_classes):
            onehot = labels == j
            cum = np.cumsum(onehot)
            excl[:, j] = cum - onehot
        return excl

    def excl_vectorized():
        # (n_classes, n) layout keeps the cumsum on contiguous rows
        onehot = (labels == np.arange(n_classes)[:, None]).astype(np.int64)
        excl = np.cumsum(onehot, axis=1)
        excl -= onehot
        return excl.T

    np.testing.assert_array_equal(excl_looped(), excl_vectorized())

    def best_of(fn, rounds=5):
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_loop = best_of(excl_looped)
    t_vec = best_of(excl_vectorized)
    out = benchmark(excl_vectorized)
    assert out.shape == (n, n_classes)

    rows = [
        {"kernel": "excl_prefix", "variant": "per-class loop (before)",
         "n": n, "n_classes": n_classes, "best_seconds": t_loop},
        {"kernel": "excl_prefix", "variant": "2-D one-hot cumsum (after)",
         "n": n, "n_classes": n_classes, "best_seconds": t_vec},
    ]
    text = "\n".join(
        f"{r['kernel']:12s} {r['variant']:28s} n={r['n']} "
        f"c={r['n_classes']} best={r['best_seconds'] * 1e3:8.2f} ms"
        for r in rows
    ) + f"\nloop/vectorized ratio: {t_loop / t_vec:.2f}x"
    emit("BENCH_kernels", text, data=rows)


def test_sample_sort_wall_time(benchmark):
    rng = np.random.default_rng(1)
    n, p = int(200_000 * SCALE), 8
    values = rng.normal(0, 1, n)
    rids = np.arange(n, dtype=np.int64)
    labels = rng.integers(0, 2, n).astype(np.int64)
    chunk = -(-n // p)

    def run():
        def worker(comm):
            lo, hi = comm.rank * chunk, min((comm.rank + 1) * chunk, n)
            out = parallel_sample_sort(
                comm, values[lo:hi], labels[lo:hi], rids=rids[lo:hi]
            )
            return len(out[0])

        return sum(run_spmd(p, worker))

    assert benchmark(run) == n


def test_node_table_update_enquire_wall_time(benchmark):
    rng = np.random.default_rng(2)
    n, p = int(200_000 * SCALE), 8
    keys = rng.permutation(n).astype(np.int64)
    vals = rng.integers(0, 1000, n).astype(np.int32)
    chunk = -(-n // p)

    def run():
        def worker(comm):
            table = DistributedNodeTable(comm, n)
            lo, hi = comm.rank * chunk, min((comm.rank + 1) * chunk, n)
            table.update(keys[lo:hi], vals[lo:hi])
            got = table.lookup(keys[lo:hi])
            return int(got.sum())

        return sum(run_spmd(p, worker))

    assert benchmark(run) == int(vals.sum()) * 1  # every pair read back once


def test_full_induction_wall_time(benchmark):
    """End-to-end: presort + level-synchronous induction, 8 ranks."""
    ds = dataset_factory(N_TRAIN)
    result = benchmark(lambda: ScalParC(8).fit(ds))
    assert result.tree.n_nodes > 1


def test_serial_reference_wall_time(benchmark):
    ds = dataset_factory(N_TRAIN)
    tree = benchmark(lambda: induce_serial(ds))
    assert tree.n_nodes > 1


def test_prediction_throughput(benchmark):
    train = dataset_factory(5_000)
    test = dataset_factory(N_KERNEL // 4)
    tree = induce_serial(train)
    preds = benchmark(lambda: tree.predict(test))
    assert len(preds) == test.n_records


def test_tree_predict_recursive_vs_compiled(benchmark):
    """Index-recursive routing versus the compiled flat-array kernel on
    the serving-scale F5 tree (40k noisy training records → a few
    thousand nodes, depth ~16 — the tree the serving benchmark ships).
    Records/sec at batch 1, 64 and 4096; the rows join the excl_prefix
    rows already in ``BENCH_kernels.json`` (this test re-emits the
    merged artifact, so run the module whole or accept a partial file).
    The acceptance bar is compiled ≥ 5× recursive at batch 4096."""
    train = paper_dataset(int(40_000 * SCALE), "F5", seed=1,
                          perturbation=0.02)
    tree = induce_serial(train)
    compiled = tree.compiled()
    test = paper_dataset(4096, "F5", seed=2)
    matrix = test.features_matrix()
    np.testing.assert_array_equal(
        compiled.predict_matrix(matrix),
        predict_columns_recursive(tree, test.columns))

    def best_records_per_sec(fn, n_records, rounds=5):
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return n_records / min(times)

    rows = []
    ratios = {}
    for bs in (1, 64, 4096):
        reps = max(1, 4096 // bs // 16) if bs < 4096 else 1
        slices = [(i * bs, (i + 1) * bs) for i in range(reps)]
        col_batches = [[c[lo:hi] for c in test.columns]
                       for lo, hi in slices]

        def run_recursive():
            for columns in col_batches:
                predict_columns_recursive(tree, columns)

        def run_compiled():
            for lo, hi in slices:
                compiled.predict_matrix(matrix[lo:hi])

        n = bs * reps
        rps_rec = best_records_per_sec(run_recursive, n)
        rps_comp = best_records_per_sec(run_compiled, n)
        ratios[bs] = rps_comp / rps_rec
        rows.append({"kernel": "tree_predict", "variant": "recursive",
                     "batch": bs, "n_nodes": compiled.n_nodes,
                     "depth": compiled.max_depth,
                     "records_per_sec": rps_rec})
        rows.append({"kernel": "tree_predict", "variant": "compiled",
                     "batch": bs, "n_nodes": compiled.n_nodes,
                     "depth": compiled.max_depth,
                     "records_per_sec": rps_comp})

    out = benchmark(lambda: compiled.predict_matrix(matrix))
    assert out.shape == (4096,)
    assert ratios[4096] >= 5.0, (
        f"compiled kernel only {ratios[4096]:.2f}x recursive at batch "
        f"4096 (acceptance bar is 5x)"
    )

    # merge with the excl_prefix rows emitted earlier in this module
    # (or present from a prior run), replacing stale tree_predict rows
    prior_rows, prior_text = [], ""
    path = RESULTS_DIR / "BENCH_kernels.json"
    if path.exists():
        record = json.loads(path.read_text())
        prior_rows = [r for r in (record.get("data") or [])
                      if r.get("kernel") != "tree_predict"]
        prior_text = record.get("text", "").split("\ntree_predict")[0]
        prior_text = prior_text.rstrip() + "\n"
    text = prior_text + "\n".join(
        f"{r['kernel']:12s} {r['variant']:28s} batch={r['batch']:<5d} "
        f"nodes={r['n_nodes']} depth={r['depth']} "
        f"rate={r['records_per_sec']:12,.0f} records/s"
        for r in rows
    ) + "\ncompiled/recursive ratio: " + ", ".join(
        f"{ratios[bs]:.1f}x @ batch {bs}" for bs in sorted(ratios))
    emit("BENCH_kernels", text, data=prior_rows + rows)


# ---------------------------------------------------------------------------
# columnar-kernel overhaul: before/after rows (the ``before`` variants are
# the pre-overhaul shipped code, inlined verbatim — including the np.sum-
# based criteria the overhaul replaced — so the ratios measure exactly what
# the kernel swap bought, not a strawman)
# ---------------------------------------------------------------------------

def _pre_overhaul_impurity(counts):
    """`impurity` as shipped before the overhaul (np.sum row reductions)."""
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=1)
    safe = np.maximum(totals, 1.0)
    frac = counts / safe[:, None]
    out = 1.0 - np.sum(frac * frac, axis=1)
    return np.where(totals > 0.0, out, 0.0)


def _pre_overhaul_scores(left, totals, criterion="gini"):
    """`split_score_from_left` as shipped before the overhaul (gini)."""
    assert criterion == "gini"
    left = np.asarray(left, dtype=np.float64)
    totals = np.broadcast_to(np.asarray(totals, dtype=np.float64), left.shape)
    right = totals - left
    n = totals.sum(axis=1)
    n_left = left.sum(axis=1)
    n_right = right.sum(axis=1)
    imp_left = _pre_overhaul_impurity(left)
    imp_right = _pre_overhaul_impurity(right)
    safe_n = np.maximum(n, 1.0)
    return (n_left / safe_n) * imp_left + (n_right / safe_n) * imp_right


def _pre_overhaul_prefix(labels, offsets, n_classes):
    """The pre-overhaul exclusive prefix: generic one-hot cumsum (no
    two-class specialization).  Signature matches the reference kernel so
    the end-to-end bench can patch it in."""
    n = len(labels)
    if n == 0:
        return np.zeros((0, n_classes), dtype=np.int64)
    nodes = np.repeat(
        np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets)
    )
    onehot = (labels == np.arange(n_classes)[:, None]).astype(np.int64)
    excl = np.cumsum(onehot, axis=1)
    excl -= onehot
    excl = excl.T
    seg_starts = np.minimum(offsets[:-1], max(n - 1, 0))
    return excl - excl[seg_starts][nodes]


def _pre_overhaul_mask(values, nodes, offsets, candidate_nodes, has_pred,
                       pred_val):
    """The pre-overhaul validity mask (already vectorized; unchanged by
    the overhaul, needed verbatim for the end-to-end ``before`` patch)."""
    n = len(values)
    prev_val = np.empty(n, dtype=np.float64)
    prev_val[1:] = values[:-1]
    if n:
        prev_val[0] = np.nan
    starts = offsets[:-1][np.diff(offsets) > 0]
    is_seg_start = np.zeros(n, dtype=bool)
    is_seg_start[starts] = True
    prev_val[starts] = pred_val[nodes[starts]]
    return (
        candidate_nodes[nodes]
        & (is_seg_start <= has_pred[nodes])
        & (values > np.where(np.isnan(prev_val), -np.inf, prev_val))
    )


def _scan_fixture(n, n_seg, seed=3):
    """A dominant-shape FindSplitII scan problem: one continuous
    attribute fragment, binary labels, distinct sorted values per node
    segment (so nearly every position is a valid candidate — the shape
    Quest's continuous attributes present)."""
    rng = np.random.default_rng(seed)
    offsets = np.linspace(0, n, n_seg + 1).astype(np.int64)
    values = np.empty(n)
    for k in range(n_seg):
        lo, hi = offsets[k], offsets[k + 1]
        values[lo:hi] = np.sort(rng.normal(0, 1, hi - lo))
    labels = rng.integers(0, 2, n).astype(np.int64)
    nodes = np.repeat(np.arange(n_seg, dtype=np.int64), np.diff(offsets))
    totals = np.zeros((n_seg, 2), dtype=np.int64)
    np.add.at(totals, (nodes, labels), 1)
    return offsets, values, labels, nodes, totals


def test_findsplit_scan_before_after(benchmark):
    """The whole FindSplitII local scan — exclusive prefix + validity
    mask + criterion evaluation + per-node winner pick — before the
    overhaul (np.sum-based criteria, full-array left counts, 3-key
    lexsort + np.unique winner pick) versus the kernel composition that
    shipped (two-class prefix, integer-index gathers, one-pass criterion,
    ``np.minimum.reduceat`` segmented argmin).  Outputs are asserted
    bit-identical; the acceptance floor is ≥ 3×."""
    n, n_seg = N_KERNEL, 64
    offsets, values, labels, nodes, totals = _scan_fixture(n, n_seg)
    below = np.zeros((n_seg, 2), dtype=np.int64)
    candidate_nodes = np.ones(n_seg, dtype=bool)
    has_pred = np.zeros(n_seg, dtype=bool)
    pred_val = np.full(n_seg, np.nan)
    seg_sizes = np.diff(offsets)

    def scan_before():
        onehot = (labels == np.arange(2)[:, None]).astype(np.int64)
        excl = np.cumsum(onehot, axis=1)
        excl -= onehot
        excl = excl.T
        seg_starts = np.minimum(offsets[:-1], max(n - 1, 0))
        seg_base = excl[seg_starts]
        left = below[nodes] + (excl - seg_base[nodes])
        prev_val = np.empty(n)
        prev_val[1:] = values[:-1]
        prev_val[0] = np.nan
        is_seg_start = np.zeros(n, dtype=bool)
        starts = offsets[:-1][seg_sizes > 0]
        is_seg_start[starts] = True
        prev_val[starts] = pred_val[nodes[starts]]
        valid = (
            candidate_nodes[nodes]
            & (is_seg_start <= has_pred[nodes])
            & (values > np.where(np.isnan(prev_val), -np.inf, prev_val))
        )
        v_nodes = nodes[valid]
        v_thr = values[valid]
        scores = _pre_overhaul_scores(left[valid], totals[v_nodes])
        order = np.lexsort((v_thr, scores, v_nodes))
        first = np.unique(v_nodes[order], return_index=True)[1]
        pick = order[first]
        return v_nodes[order][first], scores[pick], v_thr[pick]

    def scan_after():
        within = kernels.segment_class_prefix(labels, offsets, 2,
                                              nodes=nodes)
        valid = kernels.boundary_valid_mask(
            values, nodes, offsets, candidate_nodes, has_pred, pred_val
        )
        vidx = np.flatnonzero(valid)
        v_nodes = nodes.take(vidx)
        v_thr = values.take(vidx)
        left = below.take(v_nodes, axis=0) + within.take(vidx, axis=0)
        scores = kernels.split_scores(
            left, totals.take(v_nodes, axis=0), "gini"
        )
        return kernels.segment_argmin(v_nodes, scores, v_thr)

    for got, want in zip(scan_after(), scan_before()):
        np.testing.assert_array_equal(got, want)

    t_before = _best_of(scan_before)
    t_after = _best_of(scan_after)
    out = benchmark(scan_after)
    assert len(out[0]) == n_seg
    ratio = t_before / t_after
    assert ratio >= 3.0, (
        f"FindSplit scan kernel only {ratio:.2f}x over the pre-overhaul "
        f"path (acceptance floor is 3x)"
    )

    rows = [
        {"kernel": "findsplit_scan", "variant": "pre-overhaul path (before)",
         "n": n, "n_segments": n_seg, "best_seconds": t_before},
        {"kernel": "findsplit_scan", "variant": "kernel composition (after)",
         "n": n, "n_segments": n_seg, "best_seconds": t_after},
    ]
    lines = [
        f"{r['kernel']:14s} {r['variant']:30s} n={r['n']} "
        f"segs={r['n_segments']} best={r['best_seconds'] * 1e3:8.2f} ms"
        for r in rows
    ] + [f"findsplit_scan after/before ratio: {ratio:.2f}x (floor 3x)"]
    _merge_kernel_rows(rows, lines, {"findsplit_scan"})


def test_categorical_score_before_after(benchmark):
    """Coordinator-side multiway categorical scoring: the per-node
    ``best_categorical_split`` Python loop versus one batched
    ``multiway_scores`` pass over every candidate node's count matrix."""
    rng = np.random.default_rng(5)
    m, n_values, c = 2048, 10, 2
    cubes = rng.integers(0, 500, (m, n_values, c)).astype(np.int64)
    cubes[::17] = 0                      # no valid split on these nodes
    cubes[1::23, 1:] = 0                 # single occupied value

    def score_before():
        out = np.full(m, np.inf)
        for k in range(m):
            score, _mask = best_categorical_split(cubes[k], "gini")
            out[k] = score
        return out

    def score_after():
        return kernels.multiway_scores(cubes, "gini")

    np.testing.assert_array_equal(score_before(), score_after())
    t_before = _best_of(score_before)
    t_after = _best_of(score_after)
    out = benchmark(score_after)
    assert out.shape == (m,)
    ratio = t_before / t_after
    assert ratio >= 2.0, f"categorical scoring only {ratio:.2f}x"

    rows = [
        {"kernel": "categorical_score", "variant": "per-node loop (before)",
         "n_nodes": m, "n_values": n_values, "best_seconds": t_before},
        {"kernel": "categorical_score", "variant": "batched cube (after)",
         "n_nodes": m, "n_values": n_values, "best_seconds": t_after},
    ]
    lines = [
        f"{r['kernel']:17s} {r['variant']:27s} m={r['n_nodes']} "
        f"V={r['n_values']} best={r['best_seconds'] * 1e3:8.2f} ms"
        for r in rows
    ] + [f"categorical_score after/before ratio: {ratio:.2f}x"]
    _merge_kernel_rows(rows, lines, {"categorical_score"})


def test_perform_split_children_before_after(benchmark):
    """PerformSplit's rid→child routing for a categorical winner: the
    per-node mask loop (kept as the reference kernel path) versus the
    dense (node, value) → child scatter-table gather, at a deep-level
    shape (many small node segments) where per-node Python iteration
    dominates."""
    from repro.core.attribute_lists import LocalAttributeList
    from repro.core.splitter import LevelDecisions, _local_children
    from repro.datagen.schema import AttributeSpec

    rng = np.random.default_rng(7)
    n, n_seg, n_values = N_KERNEL, 16384, 10
    bounds = np.linspace(0, n, n_seg + 1).astype(np.int64)
    alist = LocalAttributeList(
        spec=AttributeSpec(name="cat0", kind="categorical",
                           n_values=n_values),
        attr_index=0,
        values=rng.integers(0, n_values, n).astype(np.int32),
        rids=np.arange(n, dtype=np.int64),
        labels=rng.integers(0, 2, n).astype(np.int64),
        offsets=bounds,
    )
    splitting = np.ones(n_seg, dtype=bool)
    decisions = LevelDecisions(
        splitting=splitting,
        winner_attr=np.zeros(n_seg, dtype=np.int64),
        threshold=np.full(n_seg, np.nan),
        cat_layouts={k: rng.permutation(n_values).astype(np.int64) % 3
                     for k in range(n_seg)},
        child_base=np.arange(n_seg, dtype=np.int64) * 3,
        n_next=n_seg * 3,
    )
    node_filter = np.ones(n_seg, dtype=bool)

    with forced_kernel_mode("reference"):
        want = _local_children(alist, decisions, node_filter)

        def children_before():
            return _local_children(alist, decisions, node_filter)

        t_before = _best_of(children_before)
    with forced_kernel_mode("fast"):
        got = _local_children(alist, decisions, node_filter)
        t_after = _best_of(
            lambda: _local_children(alist, decisions, node_filter)
        )
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    out = benchmark(lambda: _local_children(alist, decisions, node_filter))
    assert len(out[0]) == n
    ratio = t_before / t_after
    assert ratio >= 2.0, (
        f"perform-split children only {ratio:.2f}x over the per-node loop "
        f"(acceptance floor is 2x)"
    )

    rows = [
        {"kernel": "local_children", "variant": "per-node loop (before)",
         "n": n, "n_nodes": n_seg, "best_seconds": t_before},
        {"kernel": "local_children", "variant": "scatter table (after)",
         "n": n, "n_nodes": n_seg, "best_seconds": t_after},
    ]
    lines = [
        f"{r['kernel']:14s} {r['variant']:30s} n={r['n']} "
        f"m={r['n_nodes']} best={r['best_seconds'] * 1e3:8.2f} ms"
        for r in rows
    ] + [f"local_children after/before ratio: {ratio:.2f}x (floor 2x)"]
    _merge_kernel_rows(rows, lines, {"local_children"})


def test_reorder_before_after(benchmark):
    """The attribute-list regroup after a split level: the pre-overhaul
    plan (boolean keep-mask, full-width int64 stable argsort, then a
    ``[keep][perm]`` double gather per payload array) versus the shipped
    ``stable_regroup`` plan (radix-width key, one fused gather per
    array).  Acceptance floor: ≥ 2×."""
    rng = np.random.default_rng(11)
    n, n_next = N_KERNEL, 128
    values = rng.normal(0, 1, n)
    rids = np.arange(n, dtype=np.int64)
    labels = rng.integers(0, 2, n).astype(np.int64)
    new_nodes = rng.integers(-1, n_next, n).astype(np.int64)

    def reorder_before():
        keep = new_nodes >= 0
        kept = new_nodes[keep]
        perm = np.argsort(kept, kind="stable")
        out_v = values[keep][perm]
        out_r = rids[keep][perm]
        out_l = labels[keep][perm]
        counts = np.bincount(kept, minlength=n_next)
        offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        return out_v, out_r, out_l, offsets

    def reorder_after():
        take, offsets = kernels.stable_regroup(new_nodes, n_next)
        return values[take], rids[take], labels[take], offsets

    for got, want in zip(reorder_after(), reorder_before()):
        np.testing.assert_array_equal(got, want)
    t_before = _best_of(reorder_before, rounds=7)
    t_after = _best_of(reorder_after, rounds=7)
    out = benchmark(reorder_after)
    assert out[3][-1] == (new_nodes >= 0).sum()
    ratio = t_before / t_after
    assert ratio >= 2.0, (
        f"reorder only {ratio:.2f}x over the pre-overhaul double-gather "
        f"plan (acceptance floor is 2x)"
    )

    rows = [
        {"kernel": "reorder", "variant": "double gather (before)",
         "n": n, "n_next": n_next, "best_seconds": t_before},
        {"kernel": "reorder", "variant": "fused regroup (after)",
         "n": n, "n_next": n_next, "best_seconds": t_after},
    ]
    lines = [
        f"{r['kernel']:14s} {r['variant']:30s} n={r['n']} "
        f"next={r['n_next']} best={r['best_seconds'] * 1e3:8.2f} ms"
        for r in rows
    ] + [f"reorder after/before ratio: {ratio:.2f}x (floor 2x)"]
    _merge_kernel_rows(rows, lines, {"reorder"})


def test_reshard_resume_before_after(benchmark):
    """Elastic-resume re-blocking (p → p′): the doubly nested per-node
    list rebuild versus the concatenate-once + stable-regroup path, at a
    realistic deep-tree shape (8 old ranks, 256 active nodes)."""
    from repro.core.attribute_lists import _reshard_one_attribute
    from repro.datagen.schema import AttributeSpec

    rng = np.random.default_rng(13)
    old_size, new_size, n_nodes = 8, 5, 256
    per_rank = N_KERNEL // 8 // old_size
    spec = AttributeSpec(name="c0", kind="continuous")
    fragments = []
    for _ in range(old_size):
        sizes = rng.multinomial(per_rank, np.ones(n_nodes) / n_nodes)
        offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        fragments.append((
            rng.normal(0, 1, per_rank),
            rng.permutation(per_rank).astype(np.int64),
            rng.integers(0, 2, per_rank).astype(np.int64),
            offsets,
        ))

    def reshard(mode):
        with forced_kernel_mode(mode):
            return [
                _reshard_one_attribute(spec, 0, fragments, rank, new_size)
                for rank in range(new_size)
            ]

    want, got = reshard("reference"), reshard("fast")
    for a, b in zip(want, got):
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.rids, b.rids)
        np.testing.assert_array_equal(a.offsets, b.offsets)
    t_before = _best_of(lambda: reshard("reference"))
    t_after = _best_of(lambda: reshard("fast"))
    lists = benchmark(lambda: reshard("fast"))
    assert sum(a.n_local for a in lists) == old_size * per_rank
    ratio = t_before / t_after
    assert ratio >= 1.3, f"reshard only {ratio:.2f}x"

    rows = [
        {"kernel": "reshard_resume", "variant": "nested rebuild (before)",
         "n": old_size * per_rank, "n_nodes": n_nodes,
         "old_size": old_size, "new_size": new_size,
         "best_seconds": t_before},
        {"kernel": "reshard_resume", "variant": "stable regroup (after)",
         "n": old_size * per_rank, "n_nodes": n_nodes,
         "old_size": old_size, "new_size": new_size,
         "best_seconds": t_after},
    ]
    lines = [
        f"{r['kernel']:14s} {r['variant']:30s} n={r['n']} "
        f"m={r['n_nodes']} p={r['old_size']}→{r['new_size']} "
        f"best={r['best_seconds'] * 1e3:8.2f} ms"
        for r in rows
    ] + [f"reshard_resume after/before ratio: {ratio:.2f}x"]
    _merge_kernel_rows(rows, lines, {"reshard_resume"})


def test_end_to_end_fit_kernel_modes(benchmark, monkeypatch):
    """End-to-end thread-backend fit on the serving-scale F5 dataset,
    before versus after the kernel overhaul.  The ``before`` run forces
    reference kernel mode — per-node loops for winner picks, categorical
    scoring, children routing, regrouping — and then patches the three
    kernels the pre-overhaul code already had vectorized (exclusive
    prefix, validity mask, criterion evaluation) back to their shipped
    pre-overhaul implementations, reconstructing the pre-overhaul hot
    path.  (The regroup reference returns a fused gather plan, slightly
    faster than the old double gather, so the ratio is conservative.)
    Both fits must grow the identical tree.  Acceptance floor: ≥ 1.5×."""
    ds = paper_dataset(int(40_000 * SCALE), "F5", seed=1, perturbation=0.02)

    def fit():
        return ScalParC(2, machine=None, backend="thread").fit(ds)

    monkeypatch.setenv(kernels.KERNEL_MODE_ENV, "reference")
    monkeypatch.setattr(kernels, "segment_class_prefix_reference",
                        _pre_overhaul_prefix)
    monkeypatch.setattr(kernels, "boundary_valid_mask_reference",
                        _pre_overhaul_mask)
    monkeypatch.setattr(kernels, "split_scores", _pre_overhaul_scores)
    tree_before = fit().tree
    t_before = _best_of(fit, rounds=2)
    monkeypatch.undo()

    monkeypatch.setenv(kernels.KERNEL_MODE_ENV, "fast")
    tree_after = fit().tree
    t_after = _best_of(fit, rounds=2)

    from tests.conftest import assert_trees_equal

    assert_trees_equal(tree_after, tree_before, "(kernel-mode fit)")
    result = benchmark(fit)
    assert result.tree.n_nodes > 1
    ratio = t_before / t_after
    assert ratio >= 1.5, (
        f"end-to-end F5 fit only {ratio:.2f}x over the pre-overhaul path "
        f"(acceptance floor is 1.5x)"
    )

    rows = [
        {"kernel": "fit_f5_thread", "variant": "pre-overhaul path (before)",
         "n": ds.n_records, "p": 2, "best_seconds": t_before},
        {"kernel": "fit_f5_thread", "variant": "kernel overhaul (after)",
         "n": ds.n_records, "p": 2, "best_seconds": t_after},
    ]
    lines = [
        f"{r['kernel']:14s} {r['variant']:30s} n={r['n']} "
        f"p={r['p']} best={r['best_seconds']:8.2f} s"
        for r in rows
    ] + [f"fit_f5_thread after/before ratio: {ratio:.2f}x (floor 1.5x)"]
    _merge_kernel_rows(rows, lines, {"fit_f5_thread"})

"""Experiment E-ckpt — level-boundary checkpoint overhead.

Checkpointing turns every level boundary into a durable cut (pickle +
fsync + atomic rename per rank, one manifest seal), so its cost scales
with the frontier state, not with induction compute — which is also why
its *share* is not a constant: the cuts of this workload cost about
0.05 s whatever the fit costs, and the fit has halved since the bar was
first set (1.29 s on one core then, 0.67–0.72 s on two cores now).
Measured at the recommended cadence (``checkpoint_every=2``) on the F5
paper workload, 2-core host: **2–9 % wall-clock** over an unprotected
fit (EXPERIMENTS.md E19; it used to be stated as "< 5 %").  The bar
asserted here, 15 %, is a regression guard above that range, not the
claim.

Measured per cadence (off / every=2 / every=1): best-of-repeats fit
wall-clock, overhead vs. off, cuts written and bytes on disk; plus the
recovery half of the trade — resuming from the last cut vs. refitting
from scratch.  Trees must be identical everywhere (asserted).  The
every=2 bar is asserted on the *median of paired per-repeat overheads*
(cadences are interleaved inside every repeat), which stays honest under
the bursty scheduler noise of a shared box.

Emitted as ``BENCH_checkpoint.{txt,json}`` — the JSON is the
machine-readable record downstream tooling consumes.
"""

from __future__ import annotations

import os
import shutil
import time

from conftest import SCALE, emit

from repro.analysis import format_table
from repro.core import induce_worker
from repro.datagen import paper_dataset
from repro.perfmodel import format_bytes
from repro.runtime import CheckpointConfig, latest_manifest, run_spmd

N = int(100_000 * SCALE)
P = 4
REPEATS = 9
#: regression guard on the every=2 cadence's overhead vs. no
#: checkpointing (measured: 2–9 %, see the module docstring)
OVERHEAD_BAR = 0.15


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def _one_fit(dataset, checkpoint=None):
    """Wall-clock of one fit (the checkpoint directory is recreated per
    run so every run pays the full write path)."""
    if checkpoint is not None:
        shutil.rmtree(checkpoint.dir, ignore_errors=True)
    t0 = time.perf_counter()
    trees = run_spmd(P, induce_worker, args=(dataset, None),
                     kwargs={"checkpoint": checkpoint}
                     if checkpoint is not None else None)
    return time.perf_counter() - t0, trees[0]


def test_checkpoint_overhead(tmp_path):
    dataset = paper_dataset(N, "F5", seed=1)

    # Interleave the cadences within every repeat so machine drift hits
    # all of them equally, then take the min per cadence — an overhead
    # this small is easily swamped by timing base and checkpointed runs
    # in separate blocks.
    configs = {
        every: CheckpointConfig(dir=str(tmp_path / f"every{every}"),
                                every=every, keep=0)
        for every in (2, 1)
    }
    samples = {cadence: [] for cadence in ("off", 2, 1)}
    base_tree = None
    for _ in range(REPEATS):
        wall, base_tree = _one_fit(dataset)
        samples["off"].append(wall)
        for every, cfg in configs.items():
            wall, tree = _one_fit(dataset, cfg)
            assert tree.structurally_equal(base_tree)  # never changes the tree
            samples[every].append(wall)

    base_wall = min(samples["off"])
    rows = [{
        "cadence": "off", "wall_s": round(base_wall, 4),
        "overhead_pct": 0.0, "cuts": 0, "disk_bytes": 0,
    }]
    for every, cfg in configs.items():
        wall = min(samples[every])
        # acceptance metric: median of the *paired* per-repeat overheads —
        # each checkpointed run is compared against the base run timed
        # right before it, so a machine-noise burst must outlast a whole
        # pair (and hit most pairs) to move the median
        paired = sorted((ck - b) / b for b, ck
                        in zip(samples["off"], samples[every]))
        median = paired[len(paired) // 2]
        cuts = sum(name.startswith("level-")
                   for name in os.listdir(cfg.dir))
        rows.append({
            "cadence": f"every={every}", "wall_s": round(wall, 4),
            "overhead_pct": round(100.0 * (wall - base_wall) / base_wall, 2),
            "overhead_median_pct": round(100.0 * median, 2),
            "cuts": cuts, "disk_bytes": _dir_bytes(cfg.dir),
        })

    # the recommended cadence stays under the bar
    every2 = rows[1]
    assert every2["overhead_median_pct"] < 100.0 * OVERHEAD_BAR, every2

    # the recovery half: resuming from the last cut vs. a full refit
    last_dir = str(tmp_path / "every1")
    manifest = latest_manifest(last_dir)
    resume = CheckpointConfig(dir=last_dir, resume=manifest, keep=0)
    t0 = time.perf_counter()
    trees = run_spmd(P, induce_worker, args=(dataset, None),
                     kwargs={"checkpoint": resume})
    resume_wall = time.perf_counter() - t0
    assert trees[0].structurally_equal(base_tree)

    text = format_table(
        ["cadence", "wall (s)", "overhead", "median", "cuts", "on disk"],
        [[r["cadence"], f"{r['wall_s']:.3f}", f"{r['overhead_pct']:+.1f}%",
          f"{r['overhead_median_pct']:+.1f}%"
          if "overhead_median_pct" in r else "",
          r["cuts"], format_bytes(r["disk_bytes"])] for r in rows],
        title=f"checkpoint overhead (F5, N={N}, p={P}, "
              f"{REPEATS} paired repeats; bar: every=2 median < "
              f"{100 * OVERHEAD_BAR:.0f}%)",
    ) + (
        f"\n\nresume from the last cut: {resume_wall:.3f}s"
        f" (full refit: {base_wall:.3f}s)"
    )
    emit("BENCH_checkpoint", text, data={
        "n": N, "p": P, "function": "F5", "repeats": REPEATS,
        "overhead_bar_pct": 100 * OVERHEAD_BAR,
        "cadences": rows,
        "resume_wall_s": round(resume_wall, 4),
        "refit_wall_s": round(base_wall, 4),
    })

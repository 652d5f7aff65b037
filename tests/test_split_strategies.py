"""Differential suite for the pluggable FindSplit strategies.

Contracts pinned here (see :mod:`repro.core.strategies`):

* **exact is behavior-preserving** — with ``split_mode="exact"`` the
  induced tree equals the golden fixtures bit-for-bit at every world
  size and on every SPMD backend (the strategy extraction moved code,
  not semantics);
* **voted degenerates to exact** — electing every attribute, with at
  least as many bins as distinct values, the binned cubes carry full
  information and the tree is structurally identical to exact's;
* **the ablation headline** — voted mode cuts FindSplit communication
  ≥5× on a wide continuous schema while staying within 1% training
  accuracy of exact on Quest data;
* config plumbing: a stray ``REPRO_SPMD_SPLIT_MODE`` is inert, the balanced
  categorical-coordinator mapping (voted only — exact keeps the legacy
  schedule), and checkpoint rejection of mid-tree strategy switches.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import InductionConfig, ScalParC
from repro.core.findsplit import coordinator_of
from repro.core.induction import induce_worker
from repro.core.phases import FINDSPLIT_PHASES
from repro.core.strategies import STRATEGIES, make_strategy
from repro.core.strategies.base import (
    balanced_coordinator_of,
    categorical_ordinals,
)
from repro.datagen import generate_quest, paper_dataset
from repro.datagen.schema import (
    CATEGORICAL,
    CONTINUOUS,
    AttributeSpec,
    Dataset,
    Schema,
)
from repro.runtime import CheckpointConfig, TraceCollector, run_spmd
from repro.tree import to_dict

GOLDEN_DIR = Path(__file__).parent / "golden"

#: fixture name -> (function, n_records, seed, config kwargs)
GOLDEN = {
    "f2_n300_seed7_p4.json": ("F2", 300, 7, {}),
    "f5_n250_seed11_depth4_p3.json": ("F5", 250, 11, {"max_depth": 4}),
}


def _fit(dataset, procs=3, backend=None, trace=None, **cfg_kwargs):
    config = InductionConfig(**cfg_kwargs)
    return ScalParC(procs, config=config, backend=backend).fit(
        dataset, trace=trace
    )


# ----------------------------------------------------------------------
# exact: behavior preservation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("procs", [1, 2, 3, 5])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exact_matches_golden_at_every_world_size(name, procs):
    fn, n, seed, kwargs = GOLDEN[name]
    ds = generate_quest(n, fn, seed=seed)
    result = _fit(ds, procs=procs, split_mode="exact", **kwargs)
    golden = json.loads((GOLDEN_DIR / name).read_text())
    assert to_dict(result.tree) == golden


@pytest.mark.parametrize("backend", ["thread", "process", "tcp"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exact_matches_golden_on_every_backend(name, backend):
    fn, n, seed, kwargs = GOLDEN[name]
    ds = generate_quest(n, fn, seed=seed)
    result = _fit(ds, procs=3, backend=backend, split_mode="exact", **kwargs)
    golden = json.loads((GOLDEN_DIR / name).read_text())
    assert to_dict(result.tree) == golden


# ----------------------------------------------------------------------
# voted: exact-degeneration and backend independence
# ----------------------------------------------------------------------


def test_histogram_with_enough_bins_is_bit_identical_to_exact():
    """Every attribute elected and n_bins ≥ n_distinct ⇒ every node scores
    every attribute's full histogram, every value gets its own bin and
    the snapped thresholds coincide with exact's — the trees must match
    exactly."""
    ds = paper_dataset(400, "F2", seed=0)
    exact = _fit(ds, procs=3, split_mode="exact").tree
    binned = _fit(ds, procs=3, split_mode="voted", n_bins=512,
                  vote_top_k=len(ds.schema.attributes)).tree
    assert binned.structurally_equal(exact)


@pytest.mark.parametrize("mode,kwargs", [
    ("voted", {"n_bins": 8, "vote_top_k": 9}),      # every F2 attribute
    ("voted", {"n_bins": 8, "vote_top_k": 1}),
])
def test_approximate_modes_are_backend_independent(mode, kwargs):
    """At a fixed world size the approximate trees depend only on the
    data partition, never on the engine that runs the ranks."""
    ds = paper_dataset(300, "F2", seed=2)
    trees = {
        backend: _fit(ds, procs=3, backend=backend,
                      split_mode=mode, **kwargs).tree
        for backend in ("thread", "process", "tcp")
    }
    assert trees["process"].structurally_equal(trees["thread"])
    assert trees["tcp"].structurally_equal(trees["thread"])


# ----------------------------------------------------------------------
# the ablation headline: bytes down ≥5×, accuracy within 1%
# ----------------------------------------------------------------------


def _wide_dataset(n=2000, n_attrs=32):
    rng = np.random.default_rng(42)
    cols = [rng.normal(0.0, 10.0, n) for _ in range(n_attrs)]
    labels = (
        (cols[0] + 0.5 * cols[3] - 0.25 * cols[7]
         + rng.normal(0.0, 2.0, n)) > 0
    ).astype(np.int32)
    schema = Schema(
        attributes=tuple(
            AttributeSpec(f"c{i}", CONTINUOUS) for i in range(n_attrs)
        ),
        n_classes=2,
    )
    return Dataset(schema=schema, columns=cols, labels=labels, name="wide")


def _findsplit_bytes(ds, **cfg_kwargs):
    tc = TraceCollector()
    result = _fit(ds, procs=4, trace=tc, max_depth=8, **cfg_kwargs)
    traced = sum(
        ev.payload_nbytes + ev.result_nbytes
        for rank in range(tc.size)
        for ev in tc.events_of(rank)
        if ev.phase in FINDSPLIT_PHASES
    )
    # the trace report's split volume is the same sum
    assert f"  split volume  : {traced}B (all FindSplit* phases)" \
        in tc.report()
    return traced, result.tree


def test_voted_cuts_findsplit_bytes_5x_within_1pct_accuracy():
    wide = _wide_dataset()
    exact_bytes, _ = _findsplit_bytes(wide, split_mode="exact")
    voted_bytes, _ = _findsplit_bytes(
        wide, split_mode="voted", n_bins=16, vote_top_k=1
    )
    assert exact_bytes >= 5.0 * voted_bytes, (exact_bytes, voted_bytes)

    quest = paper_dataset(400, "F2", seed=0)
    _, exact_tree = _findsplit_bytes(quest, split_mode="exact")
    _, voted_tree = _findsplit_bytes(
        quest, split_mode="voted", n_bins=16, vote_top_k=1
    )
    acc = {
        label: float(
            (tree.predict_columns(quest.columns) == quest.labels).mean()
        )
        for label, tree in (("exact", exact_tree), ("voted", voted_tree))
    }
    assert abs(acc["exact"] - acc["voted"]) <= 0.01, acc


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------


def test_split_mode_env_parity(monkeypatch):
    """The split mode lives in ``split_mode`` (CLI ``--split-mode``) and
    nowhere else: with ``REPRO_SPMD_SPLIT_MODE=voted`` in the environment
    (a variable older versions read) an unset mode stays exact, and the
    tree equals the one grown with the variable unset.  ``None`` means
    the default; an unknown mode is refused at construction."""
    ds = paper_dataset(300, "F2", seed=2)
    unset = _fit(ds, n_bins=16).tree
    voted = _fit(ds, split_mode="voted", n_bins=16).tree
    assert not voted.structurally_equal(unset)

    monkeypatch.setenv("REPRO_SPMD_SPLIT_MODE", "voted")
    assert _fit(ds, split_mode=None, n_bins=16).tree.structurally_equal(unset)
    assert InductionConfig().resolved_split_mode() == "exact"
    assert InductionConfig(split_mode=None) == InductionConfig()

    with pytest.raises(ValueError, match="quantum"):
        InductionConfig(split_mode="quantum")


def test_strategy_registry_covers_all_modes():
    assert set(STRATEGIES) == {"exact", "voted"}
    for mode in STRATEGIES:
        strategy = make_strategy(InductionConfig(split_mode=mode))
        assert strategy.name == mode


def test_balanced_coordinator_spreads_narrow_schemas():
    """Legacy round-robin over the raw attribute index collides when the
    categorical attributes share a residue class; voted round-robins over
    the categorical ordinal instead.  Exact keeps the legacy schedule
    (its trace digests are pinned)."""

    class _FakeList:
        def __init__(self, spec, attr_index):
            self.spec, self.attr_index = spec, attr_index

    lists = [
        _FakeList(AttributeSpec("c0", CONTINUOUS), 0),
        _FakeList(AttributeSpec("k1", CATEGORICAL, n_values=3), 1),
        _FakeList(AttributeSpec("c2", CONTINUOUS), 2),
        _FakeList(AttributeSpec("k3", CATEGORICAL, n_values=3), 3),
    ]
    ordinals = categorical_ordinals(lists)
    assert ordinals == {1: 0, 3: 1}

    size = 2
    legacy = {a: coordinator_of(a, size) for a in ordinals}
    assert legacy == {1: 1, 3: 1}          # both collide on rank 1
    balanced = {a: balanced_coordinator_of(o, size)
                for a, o in ordinals.items()}
    assert balanced == {1: 0, 3: 1}        # balanced: spread out


# ----------------------------------------------------------------------
# checkpointing across strategies
# ----------------------------------------------------------------------


def test_checkpoint_resume_same_mode_is_identical(tmp_path):
    ds = generate_quest(400, "F2", seed=3)
    config = InductionConfig(split_mode="voted", n_bins=8, vote_top_k=1)
    d = str(tmp_path / "run")
    full = run_spmd(3, induce_worker, args=(ds, config),
                    kwargs={"checkpoint": CheckpointConfig(dir=d, keep=0)})
    early = os.path.join(d, "level-0002", "manifest.json")
    assert os.path.exists(early)
    resumed = run_spmd(3, induce_worker, args=(ds, config),
                       kwargs={"checkpoint":
                               CheckpointConfig(dir=d, resume=early)})
    assert resumed[0].structurally_equal(full[0])


@pytest.mark.parametrize("switched", [
    InductionConfig(split_mode="exact"),
    InductionConfig(split_mode="voted", n_bins=16, vote_top_k=1),
    InductionConfig(split_mode="voted", n_bins=8, vote_top_k=2),
])
def test_checkpoint_rejects_mid_tree_mode_switch(tmp_path, switched):
    """A snapshot taken under one strategy (or one bin/vote setting) must
    not silently continue under another — the trees they'd grow differ."""
    ds = generate_quest(300, "F2", seed=3)
    config = InductionConfig(split_mode="voted", n_bins=8, vote_top_k=1)
    d = str(tmp_path / "run")
    run_spmd(2, induce_worker, args=(ds, config),
             kwargs={"checkpoint": CheckpointConfig(dir=d, keep=0)})
    with pytest.raises(Exception) as excinfo:
        run_spmd(2, induce_worker, args=(ds, switched),
                 kwargs={"checkpoint": CheckpointConfig(dir=d, resume=True)})
    assert "tree-shaping" in str(excinfo.value)

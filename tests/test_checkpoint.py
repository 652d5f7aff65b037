"""Level-boundary checkpoint/restart (repro.runtime.checkpoint) plus the
induction-path correctness fixes that shipped with it:

* durability discipline — atomic manifests, digest validation, torn cuts
  skipped, pruning;
* resume — same-size and p → p′ re-sharded, both bit-identical;
* knob plumbing — ``resolve_checkpoint`` env parity, ``ScalParC.fit``
  integration (the policy is no ``InductionConfig`` field);
* the empty-child leaf labeling fix (parent majority, not class 0);
* ``LevelDecisions.validate`` rejecting malformed decisions;
* FindSplitII phase attribution.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil

import numpy as np
import pytest

from repro.baselines import induce_serial, sprint_worker
from repro.core import InductionConfig, ScalParC, induce_worker
from repro.core.phases import FINDSPLIT1, FINDSPLIT2
from repro.core.splitter import LevelDecisions
from repro.datagen import generate_quest, paper_dataset
from repro.datagen.schema import AttributeSpec, Dataset, Schema
from repro.perfmodel import RankTracker
from repro.runtime import (
    CHECKPOINT_ENV,
    CheckpointConfig,
    CheckpointError,
    LevelCheckpointer,
    LoadedCheckpoint,
    SpmdWorkerError,
    TraceCollector,
    latest_manifest,
    resolve_checkpoint,
    run_spmd,
)
from repro.tree import to_dict
from repro.tree.compile import KIND_LEAF


# ----------------------------------------------------------------------
# configuration & resolution
# ----------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        CheckpointConfig(dir="")
    with pytest.raises(ValueError):
        CheckpointConfig(dir="x", every=0)
    with pytest.raises(ValueError):
        CheckpointConfig(dir="x", keep=-1)
    with pytest.raises(ValueError):
        CheckpointConfig(dir="x", max_restarts=-1)
    with pytest.raises(ValueError):
        CheckpointConfig(dir="x", jitter=1.5)
    with pytest.raises(ValueError):
        CheckpointConfig(dir="x", min_ranks=0)


def test_resolve_checkpoint_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(CHECKPOINT_ENV, raising=False)
    assert resolve_checkpoint(None) is None

    monkeypatch.setenv(CHECKPOINT_ENV, str(tmp_path))
    from_env = resolve_checkpoint(None)
    assert from_env is not None and from_env.dir == str(tmp_path)

    explicit = CheckpointConfig(dir="elsewhere", every=3)
    assert resolve_checkpoint(explicit) is explicit          # config wins
    assert resolve_checkpoint(tmp_path / "run").dir.endswith("run")
    with pytest.raises(TypeError):
        resolve_checkpoint(42)


def test_resume_source(tmp_path):
    cfg = CheckpointConfig(dir=str(tmp_path))
    assert cfg.resume_source() is None                       # fresh start
    with pytest.raises(CheckpointError):
        CheckpointConfig(dir=str(tmp_path), resume=True).resume_source()
    pinned = CheckpointConfig(dir=str(tmp_path), resume="some/manifest.json")
    assert pinned.resume_source() == "some/manifest.json"


def test_induction_config_checkpoint_field(tmp_path):
    """Checkpointing never shapes the tree, so it is no config field: it
    lives in ``fit(checkpoint=)`` and ``REPRO_SPMD_CHECKPOINT`` only."""
    with pytest.raises(TypeError, match="checkpoint"):
        InductionConfig(checkpoint=str(tmp_path))


def test_should_save_cadence():
    every3 = LevelCheckpointer(CheckpointConfig(dir="x", every=3))
    assert [lvl for lvl in range(9) if every3.should_save(lvl)] == [2, 5, 8]
    every1 = LevelCheckpointer(CheckpointConfig(dir="x", every=1))
    assert all(every1.should_save(lvl) for lvl in range(4))


# ----------------------------------------------------------------------
# durable save/load primitives (driven through a tiny SPMD worker)
# ----------------------------------------------------------------------


def _saving_worker(comm, directory, levels, every=1, keep=0):
    ckpt = LevelCheckpointer(CheckpointConfig(dir=directory, every=every,
                                              keep=keep))
    for level in levels:
        ckpt.save(comm, level,
                  rank_payload={"rank": comm.rank,
                                "data": np.arange(comm.rank + 3)},
                  shared_payload={"tree": f"partial@{level}"},
                  meta={"algo": "unit-test"})
    ckpt.finalize(comm)           # drain the pipelined writes and seals
    return len(ckpt.sealed)


def test_save_load_roundtrip(tmp_path):
    d = str(tmp_path / "run")
    run_spmd(2, _saving_worker, args=(d, [1, 2, 3]))

    manifest = latest_manifest(d)
    assert manifest is not None and "level-0003" in manifest
    loaded = LoadedCheckpoint.open(manifest)
    assert loaded.level == 3 and loaded.n_ranks == 2
    assert loaded.meta == {"algo": "unit-test"}
    assert loaded.shared_payload() == {"tree": "partial@3"}
    payloads = loaded.all_rank_payloads()
    assert [p["rank"] for p in payloads] == [0, 1]
    np.testing.assert_array_equal(payloads[1]["data"], np.arange(4))

    # open() also accepts a level dir and the run dir
    assert LoadedCheckpoint.open(os.path.dirname(manifest)).level == 3
    assert LoadedCheckpoint.open(d).level == 3
    with pytest.raises(CheckpointError):
        LoadedCheckpoint.open(str(tmp_path / "nowhere"))
    with pytest.raises(CheckpointError):
        loaded.rank_payload(2)                      # outside the old world


def test_prune_keeps_newest_cuts(tmp_path):
    d = str(tmp_path / "run")
    run_spmd(2, _saving_worker, args=(d, [1, 2, 3, 4]), kwargs={"keep": 2})
    assert sorted(os.listdir(d)) == ["level-0003", "level-0004"]


def test_corrupt_payload_detected(tmp_path):
    d = str(tmp_path / "run")
    run_spmd(2, _saving_worker, args=(d, [1]))
    loaded = LoadedCheckpoint.open(d)
    victim = os.path.join(loaded.directory, "rank-001.ckpt")
    blob = bytearray(open(victim, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(victim, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="corrupt"):
        loaded.rank_payload(1)


def test_torn_cut_skipped(tmp_path):
    d = str(tmp_path / "run")
    run_spmd(2, _saving_worker, args=(d, [1]))
    # a crash mid-save leaves payloads but no manifest: must be invisible
    torn = os.path.join(d, "level-0009")
    os.makedirs(torn)
    open(os.path.join(torn, "rank-000.ckpt"), "wb").write(b"partial")
    assert "level-0001" in latest_manifest(d)
    # ...as must a manifest from an incompatible future format
    future = os.path.join(d, "level-0010")
    os.makedirs(future)
    with open(os.path.join(future, "manifest.json"), "w") as fh:
        json.dump({"format": 999}, fh)
    assert "level-0001" in latest_manifest(d)
    assert LoadedCheckpoint.open(d).level == 1


# ----------------------------------------------------------------------
# end-to-end: checkpointed fits and resumes (thread backend)
# ----------------------------------------------------------------------


def test_checkpointed_fit_writes_cuts_and_matches_serial(tmp_path):
    ds = generate_quest(400, "F2", seed=3)
    golden = induce_serial(ds)
    cfg = CheckpointConfig(dir=str(tmp_path / "run"), every=2, keep=0)
    trees = run_spmd(3, induce_worker, args=(ds, None),
                     kwargs={"checkpoint": cfg})
    assert trees[0].structurally_equal(golden)
    manifest = latest_manifest(cfg.dir)
    assert manifest is not None
    assert LoadedCheckpoint.open(manifest).n_ranks == 3


@pytest.mark.parametrize("new_size", [3, 2, 4])
def test_resume_is_bit_identical(tmp_path, new_size):
    """Resume from a mid-fit cut on the same or a different world size —
    the finished tree must equal the uninterrupted run's exactly."""
    ds = generate_quest(500, "F2", seed=5)
    golden = induce_serial(ds)
    d = str(tmp_path / "run")
    run_spmd(3, induce_worker, args=(ds, None),
             kwargs={"checkpoint": CheckpointConfig(dir=d, keep=0)})
    # rewind to an *early* cut so the resumed job does real work
    early = os.path.join(d, "level-0002", "manifest.json")
    assert os.path.exists(early)
    resume = CheckpointConfig(dir=d, resume=early)
    trees = run_spmd(new_size, induce_worker, args=(ds, None),
                     kwargs={"checkpoint": resume})
    for tree in trees:
        assert tree.structurally_equal(golden)


def test_resume_rejects_mismatched_run(tmp_path):
    ds = generate_quest(300, "F2", seed=5)
    d = str(tmp_path / "run")
    run_spmd(2, induce_worker, args=(ds, None),
             kwargs={"checkpoint": CheckpointConfig(dir=d)})
    resume = CheckpointConfig(dir=d, resume=True)

    other = generate_quest(280, "F2", seed=5)      # different n_records
    with pytest.raises(Exception) as excinfo:
        run_spmd(2, induce_worker, args=(other, None),
                 kwargs={"checkpoint": resume})
    assert any(isinstance(e, CheckpointError)
               for e in excinfo.value.failures.values())

    shaped = InductionConfig(max_depth=2)          # different tree shape
    with pytest.raises(Exception) as excinfo:
        run_spmd(2, induce_worker, args=(ds, shaped),
                 kwargs={"checkpoint": resume})
    assert any(isinstance(e, CheckpointError)
               for e in excinfo.value.failures.values())


def test_resume_rejects_cut_that_predates_the_table_frontier(tmp_path,
                                                           monkeypatch):
    """A cut written while the partial tree was a node graph carries
    ``"tree": (root, pending)`` and no ``"rows"``: resume must refuse it
    typed, naming the format — not fail unpacking inside the level
    loop."""
    ds = generate_quest(300, "F2", seed=5)
    d = str(tmp_path / "run")
    run_spmd(2, induce_worker, args=(ds, None),
             kwargs={"checkpoint": CheckpointConfig(dir=d)})
    root = to_dict(induce_serial(ds, InductionConfig(max_depth=1)))["root"]
    payload = LoadedCheckpoint.shared_payload

    def old_format(self):
        shared = {k: v for k, v in payload(self).items() if k != "rows"}
        shared["tree"] = (root, [(root, c, 1)
                                 for c in range(len(root["children"]))])
        return shared

    monkeypatch.setattr(LoadedCheckpoint, "shared_payload", old_format)
    with pytest.raises(Exception) as excinfo:
        run_spmd(2, induce_worker, args=(ds, None),
                 kwargs={"checkpoint": CheckpointConfig(dir=d, resume=True)})
    errors = list(excinfo.value.failures.values())
    assert errors and all(isinstance(e, CheckpointError) for e in errors)
    assert all("predates the table frontier" in str(e) for e in errors)


def test_resume_refuses_the_committed_level_block_cut(tmp_path):
    """``tests/fixtures/batch_cut_level_blocks`` is a level-boundary cut
    written by the driver whose frontier was one block of columns per
    level (a pickled frontier object under ``"frontier"``; F2, 600
    records, p = 2, max_depth 6, thread backend, after level 1).  The
    per-node-row driver refuses it, typed, on every rank."""
    fixture = pathlib.Path(__file__).resolve().parent / "fixtures"
    shutil.copytree(fixture / "batch_cut_level_blocks", tmp_path / "cut")
    with pytest.raises(Exception) as excinfo:
        ScalParC(2, InductionConfig(max_depth=6), machine=None,
                 backend="thread").fit(
            paper_dataset(600, "F2", seed=1), checkpoint=CheckpointConfig(
                dir=str(tmp_path / "cut"), resume=True))
    errors = list(excinfo.value.failures.values())
    assert len(errors) == 2
    for exc in errors:
        assert isinstance(exc, CheckpointError) and "predates" in str(exc)


def test_payload_naming_a_missing_class_is_a_typed_error(tmp_path):
    """A payload that unpickles a module or class this version lacks — a
    cut from an older format — is refused as a ``CheckpointError`` naming
    the file, not an ``AttributeError`` from deep inside pickle."""
    level = tmp_path / "level-0001"
    level.mkdir()
    blobs = {"shared.ckpt": b"cno_such_module\nThing\n.",
             "rank-000.ckpt": b"crepro.runtime.checkpoint\nNoSuchClass\n."}
    for name, blob in blobs.items():
        (level / name).write_bytes(blob)
    (level / "manifest.json").write_text(json.dumps({
        "format": 1, "level": 1, "n_ranks": 1, "files": {
            name: hashlib.blake2b(blob, digest_size=16).hexdigest()
            for name, blob in blobs.items()}}))
    loaded = LoadedCheckpoint.open(str(tmp_path))
    for read, name in ((loaded.shared_payload, "shared.ckpt"),
                       (lambda: loaded.rank_payload(0), "rank-000.ckpt")):
        with pytest.raises(CheckpointError, match="predates") as excinfo:
            read()
        assert name in str(excinfo.value)


@pytest.mark.parametrize("field", ["algo", "schema", "config"])
@pytest.mark.parametrize("driver", ["batch", "stream"])
def test_resume_names_the_mismatched_header_field(tmp_path, driver, field):
    """Both induction drivers share one cut-compatibility rule: a cut is
    refused, typed, naming which of ``algo`` / ``schema`` / ``config``
    differs — including a cut written by the *other* driver."""
    ds = generate_quest(600, "F2", seed=5)
    cfg = InductionConfig(max_depth=6, stream_chunk_records=300)

    def run(how, dataset, config, checkpoint):
        clf = ScalParC(2, config, machine=None, backend="thread")
        if how == "batch":
            return clf.fit(dataset, checkpoint=checkpoint)
        return clf.fit_stream(dataset, checkpoint=checkpoint, max_epochs=1)

    other = {"batch": "stream", "stream": "batch"}[driver]
    run(other if field == "algo" else driver, ds, cfg,
        CheckpointConfig(dir=str(tmp_path)))
    if field == "schema":
        ds = generate_quest(600, "F2", seed=5,
                            attributes=("salary", "age", "elevel"))
    if field == "config":
        cfg = InductionConfig(max_depth=5, stream_chunk_records=300)
    with pytest.raises(Exception) as excinfo:
        run(driver, ds, cfg, CheckpointConfig(dir=str(tmp_path), resume=True))
    errors = [e for e in excinfo.value.failures.values()
              if isinstance(e, CheckpointError)]
    assert errors and all(field in str(e) for e in errors)


#: (streaming, config knobs, pinned fingerprint)
PINNED_FINGERPRINTS = [
    (False, {}, "8ad62517fca9b25d"),
    (False, {"n_bins": 7}, "8ad62517fca9b25d"),     # masked in exact mode
    (False, {"split_mode": "voted", "n_bins": 8, "vote_top_k": 1},
     "f39743d802b4d580"),                           # not masked in voted
    (False, {"split_mode": "voted", "n_bins": 16, "vote_top_k": 1},
     "bb090856fb16f7fa"),
    (False, {"max_depth": 8, "criterion": "entropy"}, "666edd7acd2bcb93"),
    (True, {}, "07e1780975c48336"),
    (True, {"max_depth": 8, "stream_chunk_records": 500, "sketch_size": 128},
     "675a4194c2a4cad7"),
]


@pytest.mark.parametrize("streaming, knobs, digest", PINNED_FINGERPRINTS)
def test_config_fingerprints_are_pinned(streaming, knobs, digest):
    """Literal pins, computed before the two drivers' fingerprint code
    was unified: a moved digest strands every cut already on disk."""
    assert InductionConfig(**knobs).fingerprint(streaming) == digest


#: the streaming fingerprint of the retired eager-growth settings
#: ``stream_grow_records=500, stream_reopen_delta=0.1`` at the default
#: chunk and sketch sizes, pinned before those fields were deleted
EAGER_FINGERPRINT = "1c569498ad2db970"


def test_cut_of_an_eager_stream_is_refused(tmp_path, monkeypatch):
    """A cut written under eager growth carries that digest, and no
    config computes it any more (the retired knobs hash as their
    finalize-only defaults): resuming it is refused, typed, as any cut
    of other tree-shaping settings is."""
    ds = generate_quest(600, "F2", seed=5)
    clf = ScalParC(2, InductionConfig(), machine=None, backend="thread")
    with monkeypatch.context() as mp:
        mp.setattr(InductionConfig, "fingerprint",
                   lambda self, streaming=False: EAGER_FINGERPRINT)
        clf.fit_stream(ds, checkpoint=CheckpointConfig(dir=str(tmp_path)),
                       max_epochs=1)
    cut = LoadedCheckpoint.open(str(tmp_path))
    assert cut.shared_payload()["config"] == EAGER_FINGERPRINT
    with pytest.raises(SpmdWorkerError) as excinfo:
        clf.fit_stream(ds, checkpoint=CheckpointConfig(dir=str(tmp_path),
                                                       resume=True))
    errors = list(excinfo.value.failures.values())
    assert len(errors) == 2
    for exc in errors:
        assert isinstance(exc, CheckpointError)
        assert "tree-shaping settings" in str(exc)
        assert cut.manifest_path in str(exc)


def test_schema_fingerprint_is_pinned():
    from repro.core.config import schema_fingerprint
    from repro.datagen import paper_dataset

    assert schema_fingerprint(paper_dataset(10, "F2").schema) \
        == "276d0bc14e46402f"


def test_fit_api_and_env_parity(tmp_path, monkeypatch):
    ds = generate_quest(300, "F3", seed=2)
    golden = induce_serial(ds)

    # explicit fit(checkpoint=...) path
    d1 = str(tmp_path / "api")
    result = ScalParC(2).fit(ds, checkpoint=d1)
    assert result.tree.structurally_equal(golden)
    assert latest_manifest(d1) is not None

    # REPRO_SPMD_CHECKPOINT env path
    d3 = str(tmp_path / "env")
    monkeypatch.setenv(CHECKPOINT_ENV, d3)
    result = ScalParC(2).fit(ds)
    assert result.tree.structurally_equal(golden)
    assert latest_manifest(d3) is not None


def test_explicit_checkpoint_with_incapable_worker_raises(tmp_path):
    def no_ckpt_worker(comm):
        return comm.rank

    with pytest.raises(TypeError, match="checkpoint"):
        run_spmd(2, no_ckpt_worker, checkpoint=str(tmp_path))


def test_env_checkpoint_with_incapable_worker_is_ignored(tmp_path,
                                                         monkeypatch):
    monkeypatch.setenv(CHECKPOINT_ENV, str(tmp_path / "ignored"))

    def no_ckpt_worker(comm):
        return comm.rank

    assert run_spmd(2, no_ckpt_worker) == [0, 1]
    assert not os.path.exists(str(tmp_path / "ignored"))


# ----------------------------------------------------------------------
# malformed LevelDecisions (bugfix: honest Optional + early validation)
# ----------------------------------------------------------------------


def test_malformed_level_decisions_rejected():
    splitting = np.array([True, False])
    ok = LevelDecisions(
        splitting=splitting,
        winner_attr=np.array([0, -1]),
        threshold=np.array([1.5, np.nan]),
        cat_layouts={},
        child_base=np.array([0, 0]),
        n_next=2,
    )
    ok.validate()                                   # well-formed passes

    with pytest.raises(ValueError, match="malformed LevelDecisions"):
        LevelDecisions(splitting=splitting,
                       winner_attr=np.array([0, -1]),
                       threshold=np.array([1.5, np.nan]),
                       cat_layouts={}, child_base=None,
                       n_next=2).validate()
    with pytest.raises(ValueError, match="malformed LevelDecisions"):
        LevelDecisions(splitting=splitting,
                       winner_attr=np.array([0]),   # wrong length
                       threshold=np.array([1.5, np.nan]),
                       cat_layouts={}, child_base=np.array([0, 0]),
                       n_next=2).validate()
    with pytest.raises(ValueError, match="malformed LevelDecisions"):
        LevelDecisions(splitting=splitting,
                       winner_attr=np.array([0, -1]),
                       threshold=np.array([1.5, np.nan]),
                       cat_layouts={}, child_base=np.array([0, 0]),
                       n_next=0).validate()         # splits but no children


# ----------------------------------------------------------------------
# empty-child leaf labeling (bugfix: parent majority, not class 0)
# ----------------------------------------------------------------------


def _held_out_category_dataset() -> Dataset:
    """120 records whose categorical attribute declares 4 values but only
    ever takes {0, 1, 3} — value 2 is held out of the training data.  The
    label follows the category (with noise broken by a continuous
    attribute), so the categorical attribute wins the root split, and the
    overall majority class is 1 (so a class-0 mislabel is detectable)."""
    rng = np.random.default_rng(42)
    cat = rng.choice(np.array([0, 1, 3]), size=120,
                     p=[0.25, 0.5, 0.25]).astype(np.int32)
    labels = np.where(cat == 0, 0, 1).astype(np.int64)
    cont = rng.normal(size=120) + labels            # weakly informative
    schema = Schema(attributes=(
        AttributeSpec("cat", "categorical", n_values=4),
        AttributeSpec("cont", "continuous"),
    ), n_classes=2)
    return Dataset(schema=schema, columns=[cat, cont.astype(np.float64)],
                   labels=labels)


def test_held_out_category_matches_serial():
    """A declared-but-absent categorical value maps to no child
    (value_to_child == -1) and the parallel tree equals the serial one."""
    ds = _held_out_category_dataset()
    golden = induce_serial(ds)
    root = to_dict(golden)["root"]
    assert (root["type"], root["attr_index"]) == ("categorical", 0)
    assert root["value_to_child"][2] == -1          # held-out value
    trees = run_spmd(3, induce_worker, args=(ds, None))
    assert trees[0].structurally_equal(golden)


def test_empty_child_inherits_parent_majority(monkeypatch):
    """Force a genuinely empty child (map the held-out value to its own
    child slot) in the serial reference and in every level-synchronous
    inducer — ScalParC and parallel SPRINT: the empty leaf must
    inherit the parent's majority class — the historical behaviour labeled
    it argmax of all-zero counts, i.e. always class 0."""
    from repro.core import splits as real_splits

    def layout_with_empty_child(matrix, mask):
        v2c, n_children, default = \
            real_splits.categorical_children_layout(matrix, mask)
        if mask is None and np.any(v2c == -1):      # multiway + held-out
            v2c = v2c.copy()
            absent = int(np.argmax(v2c == -1))
            v2c[absent] = n_children
            n_children += 1
        return v2c, n_children, default

    import repro.baselines.serial_reference as serial_mod
    import repro.core.frontier as frontier_mod
    monkeypatch.setattr(serial_mod, "categorical_children_layout",
                        layout_with_empty_child)
    monkeypatch.setattr(frontier_mod, "categorical_children_layout",
                        layout_with_empty_child)

    ds = _held_out_category_dataset()
    golden = induce_serial(ds)
    trees = {
        "serial reference": golden,
        "induce_worker": run_spmd(3, induce_worker, args=(ds, None))[0],
        "sprint_worker": run_spmd(3, sprint_worker, args=(ds, None))[0],
    }

    for name, tree in trees.items():
        assert tree.structurally_equal(golden), name
        t = tree.compiled()
        parent = np.repeat(np.arange(t.n_nodes), t.n_children)  # of 1, 2 …
        empties = np.flatnonzero((t.kind == KIND_LEAF) & (t.n_records == 0))
        assert len(empties), f"{name}: the forced layout should create an " \
            "empty child"
        for v in empties.tolist():
            assert t.class_counts[v].sum() == 0, name
            assert t.leaf_label[v] == \
                np.argmax(t.class_counts[parent[v - 1]]), name
            assert t.leaf_label[v] == 1, name       # class 0 was the bug


# ----------------------------------------------------------------------
# FindSplitII phase attribution (bugfix: timed_phase(comm, ...) so the
# scan region's collectives are stamped with its phase)
# ----------------------------------------------------------------------


def test_findsplit2_phase_attribution():
    ds = generate_quest(400, "F2", seed=9)
    collector = TraceCollector()
    ledgers = [RankTracker() for _ in range(2)]
    run_spmd(2, induce_worker, args=(ds, InductionConfig()),
             rank_perf=ledgers, trace=collector)

    for rank, tracker in enumerate(ledgers):
        events = collector.events_of(rank)
        # every collective issued inside the level loop is inside a
        # timed_phase region entered through the communicator
        assert all(e.phase is not None
                   for e in events if e.level is not None)
        # each phase's bytes are on the events stamped with it, and every
        # such event's collective row (its ledger position, ``clock``)
        # lies inside a span the ledger books to that phase
        for phase in (FINDSPLIT1, FINDSPLIT2):
            stamped = [e for e in events if e.phase == phase]
            assert stamped, f"no {phase} events on rank {rank}"
            assert sum(e.payload_nbytes + e.result_nbytes
                       for e in stamped) > 0
            spans = [(end - row[2], end)
                     for end, row in enumerate(tracker.rows)
                     if row[:2] == ("phase", phase)]
            assert all(any(lo <= e.clock < hi for lo, hi in spans)
                       for e in stamped)

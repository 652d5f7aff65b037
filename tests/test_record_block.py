"""The categorical lists' shared record block.

Only the continuous lists are presorted, so on each rank every
categorical list holds the same record ids, labels and segment offsets
at every level.  They share them: the same ``rids`` / ``labels`` /
``offsets`` objects and one ``entry_nodes`` cache, each list owning only
its values.  Checked here after every builder (``build_local_lists``,
``hand_off_lists``, ``restore_local_lists`` at p = p′ and 3 → 2) and
after every level, on every backend — and the other way round: a
categorical list given private copies grows the same tree, with the same
trace and ledger, because sharing is an optimisation only.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import shutil

import numpy as np
import pytest

from repro.baselines.parallel_sprint import ReplicatedSprintSplitPhase
from repro.core import InductionConfig
from repro.core.attribute_lists import (
    block_leaders, build_local_lists, hand_off_lists, regroup_lists,
    restore_local_lists, snapshot_lists)
from repro.core.induction import induce_worker
from repro.core.splitter import ScalParCSplitPhase
from repro.datagen import generate_quest
from repro.perfmodel import RankTracker
from repro.runtime import (
    CheckpointConfig, SelfCommunicator, TraceCollector, available_backends,
    run_spmd)
from tests.conftest import assert_trees_equal

BACKENDS = [b for b in ("thread", "process", "tcp")
            if b in available_backends()]

# F2 at 600 records hands off at level 5 for p ∈ {2, 3, 5}
DATA = generate_quest(600, "F2", seed=1)


def _block_of(lists, data=None) -> str | None:
    """Why the categorical lists do not share one record block, or
    ``None`` when they do (and, given the ``data`` the record ids number,
    every list's values and labels are its records')."""
    cat = [alist for alist in lists if not alist.spec.is_continuous]
    first = cat[0]
    for alist in cat[1:]:
        for name in ("rids", "labels", "offsets"):
            if getattr(alist, name) is not getattr(first, name):
                return f"attribute {alist.attr_index}: private {name}"
        if alist.entry_nodes() is not first.entry_nodes():
            return f"attribute {alist.attr_index}: private entry_nodes"
    if len(set(block_leaders(lists))) != len(lists) - len(cat) + 1:
        return "block_leaders disagrees"
    for alist in lists if data is not None else ():
        column = data.columns[alist.attr_index]
        if not (np.array_equal(alist.values, column[alist.rids])
                and np.array_equal(alist.labels, data.labels[alist.rids])):
            return f"attribute {alist.attr_index}: values off its records"
    return None


class _Checking:
    """A splitting phase that records, per level, whether the lists it is
    handed and the lists it leaves share their categorical block."""

    def setup(self, comm, n_total):
        super().setup(comm, n_total)
        if isinstance(comm, SelfCommunicator):
            # the hand-off's shallow copy of this phase: `seen` is shared
            self.seen.append(("handoff", None))
        else:
            self.seen = [("setup", comm.size)]

    def restore_state(self, comm, states):
        super().restore_state(comm, states)
        self.seen = [("restore", comm.size)]

    def execute(self, comm, lists, decisions, config):
        self.seen.append(("in", _block_of(lists)))
        super().execute(comm, lists, decisions, config)
        self.seen.append(("out", _block_of(lists)))


class CheckingScalParC(_Checking, ScalParCSplitPhase):
    pass


class CheckingSprint(_Checking, ReplicatedSprintSplitPhase):
    pass


def _checked_fit(comm, data, phase_cls, checkpoint=None):
    phase = phase_cls()
    induce_worker(comm, data, None, phase, checkpoint)
    return phase.seen


def _assert_shared(seen_per_rank, handoff: bool) -> None:
    for rank, seen in enumerate(seen_per_rank):
        checks = [(when, why) for when, why in seen if when in ("in", "out")]
        assert checks, f"rank {rank}: no level ran"
        for level, (when, why) in enumerate(checks):
            assert why is None, f"rank {rank}, check {level} ({when}): {why}"
        # the hand-off grows the rank's subtrees on a world of one
        assert (("handoff", None) in seen) == handoff, seen


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("p", [1, 3])
def test_every_level_shares_the_block(backend, p):
    """``build_local_lists`` (the first level's input), every level's
    regroup, and at p > 1 ``hand_off_lists`` (the local phase's first
    input) leave the categorical lists on one block."""
    seen = run_spmd(p, _checked_fit, args=(DATA, CheckingScalParC),
                    backend=backend)
    _assert_shared(seen, handoff=p > 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_parallel_sprint_levels_share_the_block(backend):
    seen = run_spmd(2, _checked_fit, args=(DATA, CheckingSprint),
                    backend=backend)
    _assert_shared(seen, handoff=False)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("new_size", [3, 2])
def test_restored_lists_share_the_block(tmp_path, backend, new_size):
    """A cut taken at p = 3, resumed at p′ = 3 and at 3 → 2: the restored
    lists (the first resumed level's input) share the block."""
    d = str(tmp_path / "run")
    run_spmd(3, induce_worker, args=(DATA, None),
             kwargs={"checkpoint": CheckpointConfig(dir=d, keep=0)},
             backend=backend)
    early = os.path.join(d, "level-0002", "manifest.json")
    assert os.path.exists(early)
    seen = run_spmd(new_size, _checked_fit, args=(DATA, CheckingScalParC),
                    kwargs={"checkpoint": CheckpointConfig(
                        dir=d, resume=early)},
                    backend=backend)
    for rank_seen in seen:
        assert rank_seen[0] == ("restore", new_size)
    _assert_shared(seen, handoff=True)


# ----------------------------------------------------------------------
# the builders, called directly
# ----------------------------------------------------------------------


def _one_level(comm, data, m):
    """Lists after one level of random next-level nodes (−1: a leaf)."""
    lists, _ = build_local_lists(comm, data)
    assert _block_of(lists, data) is None, "build_local_lists"
    node_of = np.random.default_rng(4).integers(-1, m, data.n_records)
    lead = block_leaders(lists)
    regroup_lists(comm, lists, [node_of[alist.rids] if lead[i] == i
                                else None for i, alist in enumerate(lists)],
                  m)
    assert _block_of(lists, data) is None, "regroup_lists"
    return lists


def _handoff_worker(comm, data):
    lists = _one_level(comm, data, 6)
    owner = np.array([0, -1, 1, 2, 1, 0])          # on three ranks
    out = hand_off_lists(comm, lists, owner, data.n_records)
    return _block_of(out)


@pytest.mark.parametrize("backend", BACKENDS)
def test_hand_off_lists_shares_the_block(backend):
    assert run_spmd(3, _handoff_worker, args=(DATA,),
                    backend=backend) == [None] * 3


def _snapshot_worker(comm, data, compact):
    return snapshot_lists(_one_level(comm, data, 5), compact=compact)


def _restore_worker(comm, data, states):
    return _block_of(restore_local_lists(comm, data, states), data)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("compact", [True, False])
def test_restore_local_lists_shares_the_block(backend, compact):
    states = run_spmd(3, _snapshot_worker, args=(DATA, compact),
                      backend=backend)
    for new_size in (3, 2):
        assert run_spmd(new_size, _restore_worker, args=(DATA, states),
                        backend=backend) == [None] * new_size


def test_a_cut_stores_the_block_once():
    """Every categorical state holds the same narrowed rids and offsets,
    so one pickle stores them once: the cut shrinks by the other
    categorical lists' rids and offsets."""
    lists = run_spmd(1, _one_level, args=(DATA, 5), backend="thread")[0]
    states = snapshot_lists(lists)
    cat = [s for s, alist in zip(states, lists)
           if not alist.spec.is_continuous]
    assert len(cat) == 3
    assert all(s["rids"] is cat[0]["rids"] for s in cat)
    assert all(s["offsets"] is cat[0]["offsets"] for s in cat)
    assert cat[0]["rids"].dtype == np.int32
    private = [dict(s, rids=s["rids"].copy(), offsets=s["offsets"].copy())
               for s in states]
    saved = len(pickle.dumps(private)) - len(pickle.dumps(states))
    assert saved >= 2 * cat[0]["rids"].nbytes


# ----------------------------------------------------------------------
# sharing never feeds correctness
# ----------------------------------------------------------------------


class PrivateCopies(ScalParCSplitPhase):
    """ScalParC's splitting phase, but the last categorical list leaves
    the block before every level: private copies of its rids, labels and
    offsets, and its own entry_nodes cache."""

    def execute(self, comm, lists, decisions, config):
        alist = [a for a in lists if not a.spec.is_continuous][-1]
        alist.rids, alist.labels, alist.offsets = (
            alist.rids.copy(), alist.labels.copy(), alist.offsets.copy())
        alist._nodes = [None]
        assert len(set(block_leaders(lists))) == len(lists) - 1
        super().execute(comm, lists, decisions, config)


def _fit(comm, data, config, phase_cls, checkpoint=None):
    return induce_worker(comm, data, config, phase_cls(), checkpoint)


def _run(p, backend, config, phase_cls, checkpoint=None):
    collector = TraceCollector()
    ledgers = [RankTracker() for _ in range(p)]
    trees = run_spmd(p, _fit, args=(DATA, config, phase_cls, checkpoint),
                     backend=backend, trace=collector, rank_perf=ledgers)
    events = [[dataclasses.replace(ev, wall_seconds=0.0)
               for ev in collector.events_of(rank)] for rank in range(p)]
    return trees[0], events, [led.rows for led in ledgers]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("split_mode", ["exact", "voted"])
def test_private_copies_change_nothing(backend, p, split_mode):
    config = InductionConfig(split_mode=split_mode)
    tree, events, rows = _run(p, backend, config, PrivateCopies)
    ref_tree, ref_events, ref_rows = _run(p, backend, config,
                                          ScalParCSplitPhase)
    assert_trees_equal(tree, ref_tree, f"p={p} {backend} {split_mode}")
    assert events == ref_events
    assert rows == ref_rows


@pytest.mark.parametrize("backend", BACKENDS)
def test_private_copies_cut_and_resume_the_same(tmp_path, backend):
    """The cuts of a fit with private copies are byte for byte those of
    the shared fit (a snapshot reads the categorical block by the
    invariant, not by identity), and resume to the same tree."""
    runs = []
    for phase_cls in (PrivateCopies, ScalParCSplitPhase):
        d = tmp_path / phase_cls.__name__
        tree, events, rows = _run(3, backend, None, phase_cls,
                                  CheckpointConfig(dir=str(d), keep=0))
        blobs = sorted(
            (path.relative_to(d).as_posix(), path.read_bytes())
            for path in d.rglob("rank-*.ckpt"))
        resumed = _run(2, backend, None, phase_cls, CheckpointConfig(
            dir=str(d), resume=str(d / "level-0002" / "manifest.json")))
        runs.append((tree, events, rows, blobs, resumed[0]))
        shutil.rmtree(d)
    (tree, events, rows, blobs, resumed), ref = runs
    assert_trees_equal(tree, ref[0], backend)
    assert_trees_equal(resumed, ref[0], f"{backend} resumed")
    assert (events, rows) == (ref[1], ref[2])
    assert blobs and blobs == ref[3]

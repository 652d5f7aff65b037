"""PerformSplitII answers home enquiries in place: differential suite.

The splitting phase reads the next-level node of every entry whose
record id this rank owns straight from its node-table slice, and sends
only the other ids through the enquiry's two all-to-alls.  Against the
reference path (``tests/splitter_reference.py``: every requested id
hashed and enquired), each rank's collective trace — every event field
but the wall time — and its ledger rows must be equal, as must the tree:
on every backend and processor count, with the node-table update in
tiny blocks, with categorical winners, across a checkpointed 3 → 2
elastic resume (every rank's home block moves), and at the harness's
``DistributedNodeTable.lookup`` seam.
"""

from __future__ import annotations

import dataclasses
import shutil

import numpy as np
import pytest

from repro.core import InductionConfig
from repro.core.induction import induce_worker
from repro.core.splitter import ScalParCSplitPhase
from repro.datagen import generate_quest
from repro.hashing import DistributedNodeTable
from repro.perfmodel import RankTracker
from repro.runtime import (
    CheckpointConfig,
    SpmdWorkerError,
    TraceCollector,
    available_backends,
    run_spmd,
)

from tests.conftest import assert_trees_equal
from tests.splitter_reference import ReferenceSplitPhase, lookup_reference

BACKENDS = [b for b in ("thread", "process", "tcp")
            if b in available_backends()]
PROC_COUNTS = [1, 2, 3, 5]

#: (id, Quest function, records, seed, config): F2 with the node-table
#: update in rounds of at most eight pairs per rank; F5 grows categorical
#: winners (13 of its 178 serial nodes at 300 records)
CASES = [
    ("F2-blocked", "F2", 300, 7,
     InductionConfig(max_update_block=8)),
    ("F5-categorical", "F5", 300, 7, InductionConfig()),
]


def _events(collector: TraceCollector, size: int) -> list[list]:
    """Every rank's trace events with the wall time blanked."""
    return [[dataclasses.replace(ev, wall_seconds=0.0)
             for ev in collector.events_of(rank)] for rank in range(size)]


def _induce(comm, ds, config, phase_cls, checkpoint):
    # one splitting phase per rank: it holds the rank's table
    return induce_worker(comm, ds, config, phase_cls(), checkpoint)


def _fit(size, backend, ds, config, phase_cls, checkpoint=None):
    collector = TraceCollector()
    ledgers = [RankTracker() for _ in range(size)]
    trees = run_spmd(size, _induce,
                     args=(ds, config, phase_cls, checkpoint),
                     backend=backend, trace=collector, rank_perf=ledgers)
    return trees[0], _events(collector, size), [led.rows for led in ledgers]


def _assert_same_run(got, ref, what: str) -> None:
    (tree, events, rows), (ref_tree, ref_events, ref_rows) = got, ref
    assert_trees_equal(tree, ref_tree, what)
    for rank, (a, b) in enumerate(zip(events, ref_events)):
        assert len(a) == len(b), f"{what}: rank {rank} event count"
        for x, y in zip(a, b):
            assert x == y, f"{what}: rank {rank} event {x.seq}"
    assert rows == ref_rows, f"{what}: ledger rows differ"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("nprocs", PROC_COUNTS)
@pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
def test_performsplit_in_place_matches_reference(case, nprocs, backend):
    name, fn, n, seed, config = case
    ds = generate_quest(n, fn, seed=seed)
    got = _fit(nprocs, backend, ds, config, ScalParCSplitPhase)
    ref = _fit(nprocs, backend, ds, config, ReferenceSplitPhase)
    _assert_same_run(got, ref, f"({name} p={nprocs} {backend})")
    # the in-place reads still book the paper's enquiry: a hash and a
    # table row per level on every rank, home ids included
    kinds = {row[1] for row in got[2][0] if row[0] == "compute"}
    assert {"hash", "table", "split"} <= kinds


@pytest.mark.parametrize("backend", BACKENDS)
def test_performsplit_elastic_resume_matches_reference(tmp_path, backend):
    """A cut taken at p = 3 resumed at p = 2: the table is re-blocked,
    so every rank's home block moves, and the resumed levels' traces and
    ledgers are the reference path's."""
    ds = generate_quest(500, "F2", seed=5)
    d = tmp_path / "run"
    run_spmd(3, induce_worker, args=(ds, None),
             kwargs={"checkpoint": CheckpointConfig(dir=str(d), keep=0)},
             backend=backend)
    runs = []
    for phase in (ScalParCSplitPhase, ReferenceSplitPhase):
        cut = tmp_path / f"resume-{phase.__name__}"
        shutil.copytree(d, cut)
        early = cut / "level-0002" / "manifest.json"
        assert early.exists()
        runs.append(_fit(2, backend, ds, None, phase,
                         CheckpointConfig(dir=str(cut), resume=str(early))))
    _assert_same_run(*runs, f"(3 -> 2 resume, {backend})")


def _lookup_worker(comm, n: int, seed: int, reference: bool):
    lo = min(comm.rank * -(-n // comm.size), n)
    hi = min(lo + -(-n // comm.size), n)
    keys = np.random.default_rng(seed).permutation(n)[lo:hi]
    values = (keys % 7).astype(np.int32)
    table = DistributedNodeTable(comm, n)
    table.update(keys, values)
    got = lookup_reference(table, keys) if reference else table.lookup(keys)
    return bool(np.array_equal(got, values)), got.dtype.str


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("nprocs", PROC_COUNTS)
def test_performsplit_lookup_seam_on_shuffled_keys(nprocs, backend):
    """The seam the benchmark harness drives: shuffled keys, some home and
    some away, come back as the values written, with the reference
    enquiry's trace and ledger."""
    runs = []
    for reference in (False, True):
        collector = TraceCollector()
        ledgers = [RankTracker() for _ in range(nprocs)]
        out = run_spmd(nprocs, _lookup_worker, args=(997, 3, reference),
                       backend=backend, trace=collector, rank_perf=ledgers)
        assert out == [(True, "<i4")] * nprocs
        runs.append((_events(collector, nprocs),
                     [led.rows for led in ledgers]))
    assert runs[0] == runs[1]


def _bad_key_worker(comm, key: int):
    table = DistributedNodeTable(comm, 10)
    keys = np.arange(comm.rank, 10, comm.size)
    if comm.rank == 0:
        keys = np.append(keys, key)
    table.lookup(keys)


@pytest.mark.parametrize("nprocs", [1, 2])
@pytest.mark.parametrize("key", [-1, 10])
def test_performsplit_lookup_refuses_keys_outside_the_table(nprocs, key):
    """A record id outside [0, N) is never read in place as a home key
    (at p = 1, −1 would wrap to the last slot): it is range-checked and
    refused with an IndexError."""
    with pytest.raises((IndexError, SpmdWorkerError), match="record ids"):
        run_spmd(nprocs, _bad_key_worker, args=(key,))


def _every_key_worker(comm, n: int):
    table = DistributedNodeTable(comm, n)
    mine = np.arange(comm.rank, n, comm.size)
    table.update(mine, (10 * mine).astype(np.int32))
    return table.lookup(np.arange(n)[::-1]).tolist()


def test_performsplit_lookup_on_ranks_without_a_block():
    """N < p: the last ranks own no slot, so every key they ask is away."""
    for got in run_spmd(5, _every_key_worker, args=(3,)):
        assert got == [20, 10, 0]

"""ScalParC's hand-off: once every candidate node of a pass holds at most
Σn / (2p) records, each node's entries move to one rank and every rank
grows its own subtrees on a world of one.

Covered here: the assignment (deterministic; no rank above 1.5× its fair
share), the move (a node's per-rank segments, concatenated in rank order,
already are its global sorted order — checked on heavily tied data), and
the trees (unchanged, on every backend and p ∈ {2, 3, 5}), plus one test per edge: a hand-off at the root, a rule
that never fires, a rank that owns no node.  The checkpoint rule and a
kill inside the local phase live in ``test_fault_injection.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ScalParC, induce_serial, paper_dataset
from repro.core import InductionConfig, induction
from repro.core.attribute_lists import build_local_lists, hand_off_lists
from repro.core.induction import handoff_due, lpt_owners
from repro.core.phases import HANDOFF
from repro.datagen import random_dataset
from repro.runtime import TraceCollector, available_backends, run_spmd

BACKENDS = available_backends()
WORLDS = (2, 3, 5)

# F2 at 600 records: the rule fires at level 5 for every p in WORLDS
DATA = paper_dataset(600, "F2", seed=1)


def _traced_fit(p, backend, config=None, data=DATA):
    collector = TraceCollector()
    tree = ScalParC(p, config, machine=None, backend=backend).fit(
        data, trace=collector).tree
    return tree, collector


def _handoff_events(collector, rank=0):
    return [ev for ev in collector.events_of(rank) if ev.phase == HANDOFF]


# ----------------------------------------------------------------------
# the assignment
# ----------------------------------------------------------------------


@settings(deadline=None, max_examples=200)
@given(sizes=st.lists(st.integers(0, 1_000), min_size=1, max_size=120),
       p=st.sampled_from(WORLDS))
def test_lpt_assignment_is_deterministic(sizes, p):
    sizes = np.array(sizes, dtype=np.int64)
    owners = lpt_owners(sizes, p)
    assert np.array_equal(owners, lpt_owners(sizes.copy(), p))
    assert ((owners >= 0) & (owners < p)).all()


@settings(deadline=None, max_examples=200)
@given(base=st.lists(st.integers(1, 1_000), min_size=1, max_size=30),
       extra=st.lists(st.integers(0, 1_000), max_size=30),
       p=st.sampled_from(WORLDS), seed=st.integers(0, 2 ** 32 - 1))
def test_lpt_gives_no_rank_more_than_one_and_a_half_shares(base, extra, p,
                                                           seed):
    # every base size 2p times, plus sizes no larger: the rule holds
    sizes = np.concatenate([np.repeat(base, 2 * p),
                            np.minimum(extra, max(base))]).astype(np.int64)
    sizes = np.random.default_rng(seed).permutation(sizes)
    assert handoff_due(sizes, p)
    loads = np.bincount(lpt_owners(sizes, p), weights=sizes, minlength=p)
    assert loads.max() <= 1.5 * sizes.sum() / p


@pytest.mark.parametrize("p", WORLDS)
def test_no_rank_holds_more_than_one_and_a_half_shares(p, monkeypatch):
    held = []

    def spy(comm, lists, owner, n_total):
        out = real(comm, lists, owner, n_total)
        held.append({alist.n_local for alist in out})
        return out

    real = induction.hand_off_lists
    monkeypatch.setattr(induction, "hand_off_lists", spy)
    ScalParC(p, machine=None, backend="thread").fit(DATA)
    assert len(held) == p
    assert all(len(sizes) == 1 for sizes in held)   # one count per rank
    assert max(max(sizes) for sizes in held) \
        <= 1.5 * -(-DATA.n_records // p)


# ----------------------------------------------------------------------
# the move
# ----------------------------------------------------------------------


def _move_worker(comm, data, node_of, owner):
    lists, _ = build_local_lists(comm, data)
    for alist in lists:
        alist.reorder(node_of[alist.rids], len(owner))
    return [(alist.attr_index, alist.values, alist.rids, alist.labels,
             alist.offsets)
            for alist in hand_off_lists(comm, lists, owner, data.n_records)]


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300),
       m=st.integers(1, 12), p=st.sampled_from(WORLDS))
def test_moved_segments_are_the_global_sorted_order(seed, n, m, p):
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n, duplicate_heavy=True)
    node_of = rng.integers(-1, m, n)            # −1: a record in a leaf
    owner = rng.integers(-1, p, m)              # −1: a terminal node
    results = run_spmd(p, _move_worker, args=(data, node_of, owner),
                       backend="thread")
    for rank, lists in enumerate(results):
        nodes = np.flatnonzero(owner == rank)
        records = [np.flatnonzero(node_of == k) for k in nodes]
        # new ids number the rank's records in record order
        ids = np.sort(np.concatenate([[]] + records)).astype(np.int64)
        for a, values, rids, labels, offsets in lists:
            column = data.columns[a]
            want = [r[np.lexsort((r, column[r]))]
                    if data.schema[a].is_continuous else r for r in records]
            got = ids[rids]
            assert np.array_equal(offsets, np.cumsum(
                [0] + [len(r) for r in records]))
            for k, expected in enumerate(want):
                seg = slice(offsets[k], offsets[k + 1])
                assert np.array_equal(got[seg], expected)
                assert np.array_equal(values[seg], column[expected])
                assert np.array_equal(labels[seg], data.labels[expected])


# ----------------------------------------------------------------------
# the trees
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p", WORLDS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_exact_trees_are_unchanged_by_the_handoff(backend, p):
    tree, collector = _traced_fit(p, backend)
    assert tree.compiled().structure_digest \
        == induce_serial(DATA).compiled().structure_digest
    assert [ev.kind for ev in _handoff_events(collector)] \
        == ["alltoallv", "allgatherv"]
    assert collector.check().ok


def test_the_schedule_changes_only_by_the_handoff(monkeypatch):
    """Up to the hand-off the traced schedule is the data-parallel one
    event for event; after it come exactly the move and the splice."""
    _, handed = _traced_fit(3, "thread")
    monkeypatch.setattr(induction, "handoff_due", lambda sizes, n: False)
    _, plain = _traced_fit(3, "thread")
    for rank in range(3):
        events = [(ev.kind, ev.phase, ev.payload_digest, ev.result_digest)
                  for ev in handed.events_of(rank)]
        first = next(i for i, ev in enumerate(events) if ev[1] == HANDOFF)
        assert events[:first] == [
            (ev.kind, ev.phase, ev.payload_digest, ev.result_digest)
            for ev in plain.events_of(rank)][:first]
        assert [ev[:2] for ev in events[first:]] == [
            ("alltoallv", HANDOFF), ("allgatherv", HANDOFF)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_handoff_at_the_root(backend, monkeypatch):
    """Forced at the first pass: rank 0 grows the whole tree alone and
    every other rank owns nothing."""
    monkeypatch.setattr(induction, "handoff_due", lambda sizes, n: n > 1)
    tree, collector = _traced_fit(3, backend)
    assert tree.compiled().structure_digest \
        == induce_serial(DATA).compiled().structure_digest
    assert {ev.level for ev in _handoff_events(collector)} == {0}


def test_rule_that_never_fires_on_the_f7_depth6_shape():
    """``tcp_shallow_p2``'s shape (F7, depth 6): the largest candidate
    stays above Σn / (2p) down to the depth cap, so the level loop runs
    to the end as before."""
    data = paper_dataset(20_000, "F7", seed=1, perturbation=0.05)
    config = InductionConfig(max_depth=6)
    tree, collector = _traced_fit(2, "thread", config, data)
    assert not _handoff_events(collector)
    assert tree.compiled().structure_digest \
        == induce_serial(data, config).compiled().structure_digest


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_rank_that_owns_no_node(backend, monkeypatch):
    """Forced at the first pass with fewer candidates than ranks: the
    ranks left over receive nothing, grow nothing and still splice."""
    monkeypatch.setattr(induction, "handoff_due",
                        lambda sizes, n: 1 < len(sizes) < n)
    tree, collector = _traced_fit(5, backend)
    assert tree.compiled().structure_digest \
        == induce_serial(DATA).compiled().structure_digest
    assert _handoff_events(collector)


def test_voted_keeps_the_level_loop():
    """Voted's ballot is cast from each rank's share of a node, so its
    split is not a function of the node's records: no hand-off."""
    _, collector = _traced_fit(2, "thread", InductionConfig(
        split_mode="voted", n_bins=8))
    assert not _handoff_events(collector)

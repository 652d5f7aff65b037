"""The rendezvous core on its own: no threads, no processes.

``repro.runtime.engines.group`` is plain state plus pure transitions, so
everything the engines share — step completion, the mismatch rule,
mailbox matching, how a waiting call is named, how a step is finished and
how its failure is wrapped, outcome classification — is checked here by
calling it directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perfmodel import CRAY_T3D, RankTracker, replay
from repro.runtime import (
    CollectiveAbortedError,
    CollectiveMismatchError,
    SpmdWorkerError,
    WorkerCrashError,
    reduction,
)
from repro.runtime.collective import Collective
from repro.runtime.engines.group import (
    Group,
    abort_error,
    raise_failures,
    recv_where,
    run_worker,
)


def test_arrival_completes_exactly_at_size():
    grp = Group(3)
    assert grp.arrive(1, "barrier", "b") is False
    assert grp.arrive(0, "barrier", "a") is False
    assert grp.arrive(2, "barrier", "c") is True
    op, contribs, arrived = grp.take_step()
    assert (op, contribs, arrived) == ("barrier", ["a", "b", "c"], [1, 0, 2])
    # reset: the next step starts from nothing
    assert grp.arrive(0, "allgather", None) is False
    assert grp.take_step() == ("allgather", [None, None, None], [0])


def test_single_member_group_completes_on_first_arrival():
    assert Group(1).arrive(0, "allreduce", 1) is True


def test_different_op_is_a_sticky_mismatch():
    grp = Group(3)
    grp.arrive(0, "barrier", None)
    with pytest.raises(CollectiveMismatchError) as first:
        grp.arrive(2, "allgather", 5)
    assert str(first.value) == \
        "rank 2 called 'allgather' while peers are in 'barrier'"
    # the parked peer is still reported so the engine can release it …
    assert grp.take_step()[2] == [0]
    # … and the group stays unusable, even for the op that was expected
    with pytest.raises(CollectiveMismatchError) as again:
        grp.arrive(1, "barrier", None)
    assert again.value is first.value


def test_mailbox_is_fifo_per_source_and_tag():
    grp = Group(3)
    grp.post(0, 2, 20, "second")
    grp.post(0, 2, 10, "first")
    grp.post(1, 2, 10, "other-source")
    grp.post(0, 2, 10, "third")
    assert grp.match(2, 0, 99) == (False, None)
    assert grp.match(2, 0, 10) == (True, "first")
    assert grp.match(2, 0, 20) == (True, "second")
    assert grp.match(2, 0, 10) == (True, "third")
    assert grp.match(2, 0, 10) == (False, None)
    assert grp.match(2, 1, 10) == (True, "other-source")
    assert grp.match(1, 0, 10) == (False, None)


def test_waiting_calls_are_named_once_for_every_engine():
    grp = Group(3)
    grp.arrive(2, "allreduce(op=sum)", 1)
    assert grp.where() == "collective 'allreduce(op=sum)' (1/3 ranks arrived)"
    assert recv_where(0, 3) == "recv(source=0, tag=3)"


def test_finish_step_runs_combine_and_accounts_bytes():
    """A step's ``finish`` computes results only; the bytes it moved are
    accounted from what each rank booked, by the replay."""
    grp = Group(2)
    grp.arrive(1, "allgather", "yy")
    grp.arrive(0, "allgather", "x")
    results = grp.finish_step(0, Collective("allgather"))
    assert results == [["x", "yy"], ["x", "yy"]]
    assert grp.take_step() == (None, [None, None], [])     # step detached
    assert Collective("barrier").finish([None] * 3) == [None] * 3
    ledgers = [RankTracker() for _ in range(2)]
    for ledger, payload in zip(ledgers, results[0]):
        ledger.add_collective(Collective("allgather"), payload)
    ranks = replay(ledgers, CRAY_T3D)
    # to / from the one peer
    assert [(r.bytes_sent, r.bytes_recv) for r in ranks] == [(1, 2), (2, 1)]


def test_finish_step_wraps_failures_with_finishing_rank():
    spec = Collective("allreduce", "sum")
    grp = Group(3)
    # mis-shaped contribution
    contribs = [np.ones(2), np.ones(3), np.ones(2)]
    cause = "ValueError: operands could not be broadcast together"
    for g in (2, 0, 1):
        grp.arrive(g, spec.name, contribs[g])
    with pytest.raises(CollectiveAbortedError) as err:
        grp.finish_step(1, spec)
    assert str(err.value).startswith(
        "collective 'allreduce(op=sum)' failed when rank 1 completed it: "
        + cause)
    assert err.value.origin_rank == 1
    assert isinstance(err.value.__cause__, ValueError)


def test_unknown_operator_is_refused_by_name():
    with pytest.raises(LookupError, match="'no_such_op'.*import time"):
        Collective("allreduce", "no_such_op").finish([np.ones(1)])
    assert reduction.lookup("sum") is reduction.SUM


def test_collective_names_are_the_op_strings():
    assert Collective("barrier").name == "barrier"
    assert Collective("allgatherv").name == "allgatherv"
    assert Collective("reduce", "sum", 1).name == "reduce(op=sum,root=1)"
    assert Collective("exscan", "keep_last").name == "exscan(op=keep_last)"
    fused = Collective("fused_reduce", "sum",
                       sections=((2, (2,), 0), (6, (2, 2), 1)))
    assert fused.name == "fused_reduce(op=sum,n=2)"
    # segmented: each root gets its sections in their original shape
    results = fused.finish([np.arange(6), np.arange(6)])
    assert results[0][1] is None and results[1][0] is None
    assert results[0][0].tolist() == [0, 2]
    assert results[1][1].tolist() == [[4, 6], [8, 10]]
    # the replay accounts the packed buffer once, like any reduction
    ledgers = [RankTracker(), RankTracker()]
    for ledger in ledgers:
        ledger.add_collective(fused, np.arange(6))
    for rank in replay(ledgers, CRAY_T3D):
        assert rank.bytes_sent == rank.bytes_recv == 48
        assert rank.n_logical_collectives == 2


def test_run_worker_classifies_outcomes():
    def ok(comm, a, b=0):
        return comm + a + b

    def echo_abort(_comm):
        raise CollectiveAbortedError("rank 3 aborted: boom", origin_rank=3)

    def own_error(_comm):
        raise KeyError("mine")

    assert run_worker(ok, 1, (2,), {"b": 3}) == ("done", 6, "")
    kind, exc, tb = run_worker(echo_abort, None, (), {})
    assert kind == "aborted" and exc.origin_rank == 3 and "echo_abort" in tb
    kind, exc, tb = run_worker(own_error, None, (), {})
    assert kind == "error" and isinstance(exc, KeyError) and "own_error" in tb


def test_abort_error_names_origin_and_keeps_cause():
    cause = RuntimeError("boom")
    err = abort_error(4, cause)
    assert str(err) == "rank 4 aborted: RuntimeError: boom"
    assert err.origin_rank == 4 and err.__cause__ is cause


def test_raise_failures_prefers_root_causes():
    raise_failures({}, {})                                   # no failure
    root = RuntimeError("boom")
    echo = CollectiveAbortedError("rank 1 aborted", origin_rank=1)
    crash = WorkerCrashError("rank 2 died")
    with pytest.raises(SpmdWorkerError) as err:
        raise_failures({0: echo, 1: root, 2: crash}, {1: "tb-1", 0: "tb-0"})
    assert err.value.failures == {1: root}
    assert err.value.tracebacks == {1: "tb-1"}
    # only echoes and crashes: nothing to prefer, report them all
    with pytest.raises(SpmdWorkerError) as err:
        raise_failures({0: echo, 2: crash}, {})
    assert err.value.failures == {0: echo, 2: crash}

"""The ``Channel`` contract, held against both implementations.

Ranks, hosts and the router all move protocol messages through a
``Channel``; ``PipeChannel`` (process backend) and ``SocketChannel``
(tcp backend) must be interchangeable behind it: whole messages in
order, exact wire-byte counts, a typed error when the peer is gone, and
whole frames even under concurrent senders.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import socket
import threading

import numpy as np
import pytest

from repro.runtime import (
    CollectiveAbortedError,
    FrameError,
    FrameOversizeError,
    encode_frame,
)
from repro.runtime.collective import Collective
from repro.runtime.engines.process import (
    ChannelClosedError,
    PipeChannel,
    ProcessCommunicator,
)
from repro.runtime.engines.tcp import SocketChannel

KINDS = ["pipe", "socket"]


def _make_pair(kind):
    """``(a, b, raw_a)``: two connected channels plus the raw transport
    under ``a`` (for writing bytes behind the channel's back)."""
    if kind == "pipe":
        left, right = multiprocessing.Pipe(duplex=True)
        return PipeChannel(left), PipeChannel(right), left
    left, right = socket.socketpair()
    return SocketChannel(left), SocketChannel(right), left


@pytest.fixture
def pair(request):
    a, b, raw = _make_pair(request.param)
    yield a, b, raw
    a.close()
    b.close()


def _wait_readable(chan, timeout=5.0):
    assert multiprocessing.connection.wait([chan], timeout) == [chan]


def _drain(chan, count):
    """Collect ``count`` messages through the router-side read path."""
    got = []
    while len(got) < count:
        _wait_readable(chan)
        got.extend(chan.recv_ready())
    return got


MESSAGE = ("coll", 0, "allreduce",
           (np.arange(12, dtype=np.int64).reshape(3, 4),
            {"nested": [1.5, None, ("x", b"\x00\xff")]}), None)


def _assert_same(got, want):
    assert got[:3] == want[:3] and got[4] is None
    np.testing.assert_array_equal(got[3][0], want[3][0])
    assert got[3][0].dtype == want[3][0].dtype
    assert got[3][1] == want[3][1]


@pytest.mark.parametrize("pair", KINDS, indirect=True)
def test_round_trip_both_directions(pair):
    a, b, _raw = pair
    sent = a.send(MESSAGE)
    got, received = b.recv()
    _assert_same(got, MESSAGE)
    assert sent == received > 0
    assert b.send(("result", 7, None, [])) == a.recv()[1]


@pytest.mark.parametrize("pair", KINDS, indirect=True)
def test_wire_byte_counts_are_what_crossed(pair):
    """``add_transport`` is fed from these counts, so they must be the
    length of what was really written."""
    from multiprocessing.reduction import ForkingPickler

    a, b, _raw = pair
    if isinstance(a, PipeChannel):
        expected = len(ForkingPickler.dumps(MESSAGE))
    else:
        expected = len(encode_frame(MESSAGE))
    assert a.send(MESSAGE) == expected
    assert b.recv()[1] == expected


@pytest.mark.parametrize("pair", KINDS, indirect=True)
def test_recv_ready_delivers_every_message_in_order(pair):
    a, b, _raw = pair
    sizes = [a.send(("send", 0, 1, i, "x" * i, None)) for i in range(5)]
    got = _drain(b, 5)
    assert [msg[3] for msg, _n in got] == list(range(5))
    assert [n for _msg, n in got] == sizes


def test_socket_recv_ready_spans_reads():
    """Several frames in one read; one frame across several reads."""
    a, b, raw = _make_pair("socket")
    try:
        frames = [encode_frame(("hb",)), encode_frame(("probe", 0, 1, 2, None))]
        raw.sendall(frames[0] + frames[1])          # two frames, one read
        assert b.recv_ready() == [(("hb",), len(frames[0])),
                                  (("probe", 0, 1, 2, None), len(frames[1]))]
        big = encode_frame(("result", "y" * 1000, None, []))
        raw.sendall(big[:7])                        # not even a header
        assert b.recv_ready() == []
        raw.sendall(big[7:400])
        assert b.recv_ready() == []
        raw.sendall(big[400:] + frames[0][:3])      # completes; next begins
        assert b.recv_ready() == [(("result", "y" * 1000, None, []), len(big))]
        raw.sendall(frames[0][3:])
        assert b.recv() == (("hb",), len(frames[0]))
    finally:
        a.close()
        b.close()


def test_pipe_recv_ready_waits_for_a_whole_large_message():
    """A message larger than the pipe buffer arrives across several OS
    reads; ``recv_ready`` still returns it whole."""
    a, b, _raw = _make_pair("pipe")
    payload = np.arange(1 << 18, dtype=np.int64)        # 2 MiB
    writer = threading.Thread(target=a.send, args=(("send", payload),))
    writer.start()
    try:
        [(msg, nbytes)] = _drain(b, 1)
        np.testing.assert_array_equal(msg[1], payload)
        assert nbytes > payload.nbytes
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()
        a.close()
        b.close()


@pytest.mark.parametrize("pair", KINDS, indirect=True)
def test_peer_closed_is_a_typed_error(pair):
    a, b, _raw = pair
    a.send(("done", 1, None, None))
    a.close()
    assert b.recv()[0] == ("done", 1, None, None)   # buffered data survives
    with pytest.raises(ChannelClosedError):
        b.recv()
    with pytest.raises(ChannelClosedError):
        b.recv_ready()
    with pytest.raises(ChannelClosedError):
        for _ in range(64):                         # EPIPE may lag one write
            b.send(("hb",))
    with pytest.raises(ChannelClosedError):
        a.send(("hb",))                             # locally closed end
    a.close()                                       # idempotent


def test_corrupted_and_oversize_frames_are_frame_errors():
    a, b, raw = _make_pair("socket")
    try:
        frame = bytearray(encode_frame(("hb",)))
        frame[5] ^= 0xFF                            # inside the length field
        raw.sendall(bytes(frame))
        with pytest.raises(FrameError):
            b.recv_ready()
    finally:
        a.close()
        b.close()
    left, right = socket.socketpair()
    small_a, small_b = SocketChannel(left, max_frame=64), \
        SocketChannel(right, max_frame=64)
    try:
        with pytest.raises(FrameOversizeError):
            small_a.send(("result", "z" * 500, None, []))
        left.sendall(encode_frame(("result", "z" * 500, None, [])))
        with pytest.raises(FrameOversizeError):
            small_b.recv()
    finally:
        small_a.close()
        small_b.close()


def test_socket_read_bound_surfaces_as_timeout():
    a, b, raw = _make_pair("socket")
    try:
        raw.settimeout(0.05)
        with pytest.raises(TimeoutError):
            a.recv()
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("pair", ["socket"], indirect=True)
def test_concurrent_senders_never_interleave_bytes(pair):
    """The heartbeat thread shares the rank's socket with the worker:
    frames from two threads must arrive whole, even ones far larger than
    a single kernel write.  (Pipes have one writer per end.)"""
    import sys

    a, b, _raw = pair
    per_thread = 150
    payloads = {0: "a" * 3000, 1: "b" * 300_000}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        senders = [
            threading.Thread(
                target=lambda t=t: [a.send((t, i, payloads[t]))
                                    for i in range(per_thread)])
            for t in payloads
        ]
        for t in senders:
            t.start()
        got = _drain(b, 2 * per_thread)
        for t in senders:
            t.join(timeout=10)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    for t, payload in payloads.items():
        mine = [msg for msg, _n in got if msg[0] == t]
        assert [m[1] for m in mine] == list(range(per_thread))
        assert all(m[2] == payload for m in mine)


# ----------------------------------------------------------------------
# one typed coordinator-loss path (the communicator over a channel)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("pair", KINDS, indirect=True)
def test_lost_coordinator_is_a_collective_abort(pair):
    """Pipes used to leak a raw EOFError/BrokenPipeError here while tcp
    raised CollectiveAbortedError; one communicator, one translation."""
    a, b, _raw = pair
    comm = ProcessCommunicator(a, 0, 2)
    b.close()                                       # the router is gone
    with pytest.raises(CollectiveAbortedError, match="job coordinator"):
        comm.barrier()                              # request, then no reply
    with pytest.raises(CollectiveAbortedError, match="job coordinator"):
        for _ in range(64):                         # EPIPE may lag one write
            comm.send("x", 1)                       # fire-and-forget path


def test_silent_coordinator_hits_the_read_bound():
    a, b, raw = _make_pair("socket")
    try:
        raw.settimeout(0.05)
        comm = ProcessCommunicator(a, 0, 2)
        with pytest.raises(CollectiveAbortedError, match="read bound"):
            comm.barrier()
        assert b.recv()[0][:2] == ("coll", Collective("barrier"))  # it asked
    finally:
        a.close()
        b.close()

"""Payload byte-size estimation used by the communication accounting."""

from __future__ import annotations

import numpy as np

from repro.perfmodel import RankTracker
from repro.runtime import payload_nbytes, reduction, run_spmd
from repro.runtime.shm import (
    SHM_DESCRIPTOR_NBYTES,
    SHM_THRESHOLD_ENV,
    ShmDescriptor,
)


def test_none_is_free():
    assert payload_nbytes(None) == 0


def test_ndarray_exact():
    arr = np.zeros((10, 3), dtype=np.float64)
    assert payload_nbytes(arr) == 240
    assert payload_nbytes(np.int32(7)) == 4


def test_bytes_and_str():
    assert payload_nbytes(b"abcd") == 4
    assert payload_nbytes("héllo") == len("héllo".encode())


def test_scalars():
    assert payload_nbytes(True) == 1
    assert payload_nbytes(42) == 8
    assert payload_nbytes(3.14) == 8


def test_containers_recursive():
    inner = np.zeros(4, dtype=np.int64)  # 32 bytes
    assert payload_nbytes([inner, inner]) >= 64
    assert payload_nbytes({"k": inner}) >= 32 + 1
    assert payload_nbytes((1, 2.0)) >= 16


def test_object_with_dict():
    class Thing:
        def __init__(self):
            self.data = np.zeros(2, dtype=np.float64)

    assert payload_nbytes(Thing()) >= 16


def test_opaque_object_has_constant_cost():
    assert payload_nbytes(object()) > 0


def _descriptor(nbytes: int = 80_000) -> ShmDescriptor:
    return ShmDescriptor(segment="rp1j0r0s0", offset=0, dtype="<f8",
                         shape=(nbytes // 8,), nbytes=nbytes,
                         owner=0, token=3)


def test_descriptor_priced_as_control_bytes():
    """A shm descriptor crossing a pipe costs its control record, not the
    array it points at — those bytes never moved with the message."""
    desc = _descriptor()
    assert payload_nbytes(desc) == SHM_DESCRIPTOR_NBYTES
    assert payload_nbytes(desc) < desc.nbytes


def _allreduce_big(comm):
    comm.allreduce(np.zeros(10_000, dtype=np.float64), reduction.SUM)


def test_descriptor_logical_size_is_the_array(monkeypatch):
    """The simulated machine model prices the *logical* message: a rank
    books the array's size on its ledger before the engine swaps the
    array for a shared-memory descriptor, so the transport never shows."""
    monkeypatch.setenv(SHM_THRESHOLD_ENV, "4096")
    ledgers = [RankTracker() for _ in range(2)]
    run_spmd(2, _allreduce_big, backend="process", rank_perf=ledgers)
    for ledger in ledgers:
        assert ledger.transport_shared_bytes > 0    # it went by segment
        assert ledger.rows == [("collective", "allreduce(op=sum)", 80_000)]


def test_descriptor_pricing_recurses_through_containers():
    desc = _descriptor(64_000)
    arr = np.zeros(10, dtype=np.int64)
    msg = {"contribs": [desc, arr], "meta": (1, "x")}
    bare = {"contribs": [None, arr], "meta": (1, "x")}
    assert payload_nbytes(msg) - payload_nbytes(bare) == SHM_DESCRIPTOR_NBYTES

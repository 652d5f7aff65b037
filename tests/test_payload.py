"""Payload byte-size estimation used by the communication accounting."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel import RankTracker
from repro.runtime import payload_nbytes, reduction, run_spmd


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


def _allreduce_big(comm):
    comm.allreduce(np.zeros(10_000, dtype=np.float64), reduction.SUM)


def test_ledger_books_the_logical_size_not_the_pickle():
    """The simulated machine model prices the *logical* message: a rank
    books the array's size on its ledger before the engine pickles it,
    so the transport's framing never shows."""
    ledgers = [RankTracker() for _ in range(2)]
    run_spmd(2, _allreduce_big, backend="process", rank_perf=ledgers)
    for ledger in ledgers:
        assert ledger.transport_pickled_bytes > 2 * 80_000  # up and down
        assert ledger.rows == [("collective", "allreduce(op=sum)", 80_000)]


# ---------------------------------------------------------------------------
# exact-type fast path ≡ the isinstance chain it fronts
# ---------------------------------------------------------------------------

def _payload_nbytes_reference(obj: object) -> int:
    """``payload_nbytes`` before its exact-type fast path: one
    ``isinstance`` chain for every object."""
    if obj is None:
        return 0
    if isinstance(obj, (np.ndarray, np.generic)):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 8 + sum(_payload_nbytes_reference(x) for x in obj)
    if isinstance(obj, dict):
        return 8 + sum(
            _payload_nbytes_reference(k) + _payload_nbytes_reference(v)
            for k, v in obj.items()
        )
    attrs = getattr(obj, "__dict__", None)
    if attrs:
        return 8 + sum(_payload_nbytes_reference(v) for v in attrs.values())
    return 8


class _Meta:
    def __init__(self, value):
        self.value = value


class _Pair(tuple):
    pass


class _IntArray(np.ndarray):
    pass


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True), st.text(max_size=5), st.binary(max_size=5),
    st.integers(0, 2 ** 40).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.integers(0, 6).map(lambda n: np.arange(n, dtype=np.int32)),
    st.integers(0, 6).map(lambda n: np.zeros(n).view(_IntArray)),
    st.just(object()),
)
_hashable = st.one_of(st.integers(-9, 9), st.text(max_size=3),
                      st.booleans(), st.integers(0, 9).map(np.int64))
_payloads = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(_Pair),
        st.dictionaries(_hashable, inner, max_size=4),
        st.frozensets(_hashable, max_size=4),
        st.sets(_hashable, max_size=4),
        inner.map(_Meta),
    ),
    max_leaves=20,
)


@settings(deadline=None, max_examples=300)
@given(_payloads)
def test_payload_nbytes_matches_the_isinstance_chain(obj):
    """Every size is the old chain's: bools stay 1 byte, numpy scalar
    keys their width, subclasses of the fast-path types go the long
    way."""
    assert payload_nbytes(obj) == _payload_nbytes_reference(obj)


def test_payload_nbytes_of_a_share_layouts_payload():
    """The per-level layouts allgather's shape: {node: (list[int], int,
    int)}, with numpy-int keys and a nested bool."""
    layout = {np.int64(k): ([1, 0, 2, k], k, 3 * k) for k in range(40)}
    msg = [layout, (True, 2.5, None)]
    assert payload_nbytes(msg) == _payload_nbytes_reference(msg)
    assert payload_nbytes(layout) == 8 + 40 * (8 + (8 + 8 + 4 * 8 + 16))

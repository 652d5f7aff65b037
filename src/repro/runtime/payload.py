"""Payload size estimation for communication accounting.

Every message the simulated runtime carries is priced by the performance
model from its *byte size*, taken on the rank before any engine encodes
the payload.  Numpy arrays dominate ScalParC's traffic and are measured
exactly (``nbytes``); small control-plane Python objects (split
descriptions, node metadata) are estimated structurally, which is more
than accurate enough given they are O(nodes-per-level) bytes against
O(N/p) data traffic.

A shared-memory descriptor (see :mod:`repro.runtime.shm`) counts as its
control size — the ~:data:`~repro.runtime.shm.SHM_DESCRIPTOR_NBYTES`
bytes that actually cross a pipe; the array bytes it points at were
never copied, and the tracker's ``shared_bytes`` counter accounts them
separately.
"""

from __future__ import annotations

import numpy as np

from .shm import SHM_DESCRIPTOR_NBYTES, ShmDescriptor

__all__ = ["payload_nbytes"]

#: bytes charged for a bare Python object header / pointer in containers
_OBJ_OVERHEAD = 8


def payload_nbytes(obj: object) -> int:
    """Best-effort byte size of a message payload.

    Exact for numpy arrays / scalars / bytes; structural estimate for
    builtin containers; a pointer-sized constant for everything else.
    Shared-memory descriptors count as their control bytes only — the
    array they reference did not move with the message.

    The common exact types (arrays, ints, floats, lists, tuples, dicts)
    dispatch on ``type`` first: a level's control payloads are nested
    containers of plain ints, sized element by element.
    """
    t = type(obj)
    if t is np.ndarray:
        return int(obj.nbytes)
    if t is int or t is float:
        return 8
    if t is list or t is tuple:
        return _OBJ_OVERHEAD + sum(map(payload_nbytes, obj))
    if t is dict:
        return _OBJ_OVERHEAD + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    return _other_nbytes(obj)


def _other_nbytes(obj: object) -> int:
    """:func:`payload_nbytes` of every object without an exact-type fast
    path (``None``, ``bool``, numpy scalars, descriptors, bytes, strings,
    sets, subclasses and arbitrary objects)."""
    if obj is None:
        return 0
    if isinstance(obj, (np.ndarray, np.generic)):
        return int(obj.nbytes)
    if isinstance(obj, ShmDescriptor):
        return SHM_DESCRIPTOR_NBYTES
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, (list, tuple, set, frozenset)):
        return _OBJ_OVERHEAD + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return _OBJ_OVERHEAD + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    # dataclass-ish objects: size their public attribute dict if present
    attrs = getattr(obj, "__dict__", None)
    if attrs:
        return _OBJ_OVERHEAD + sum(payload_nbytes(v) for v in attrs.values())
    return _OBJ_OVERHEAD

"""Shared-memory data plane for the ``process`` backend.

The process engine moves every payload over pipes by pickling, and each
collective payload crosses a pipe *twice* (rank → router, where the step
is finished, and result → rank) — a serialization tax proportional to
exactly the O(N/p) attribute-list traffic ScalParC's design minimizes.
This module removes that tax for large numpy payloads: arrays at or above
a size threshold are written once into a :mod:`multiprocessing.shared_memory`
segment and travel over the pipes as a tiny :class:`ShmDescriptor`
``(segment, offset, dtype, shape)`` control record; the router maps the
segment and reads the array *in place* while it finishes the step, places
large results in segments of its own pool, and receivers materialize one
private copy — so collectives, point-to-point sends and the hashing
paradigm's all-to-alls become effectively zero-copy (an all-to-all block
is never opened on the way: the router passes its descriptor straight on
to the rank it is addressed to).

Building blocks (the process engine wires them together):

* :class:`ShmPool` — owner-side buffer pool (one per rank, one for the
  router): power-of-two size classes,
  free-list reuse, ref-counted leases (a lease is *in flight* from
  :meth:`ShmPool.place` until :meth:`ShmPool.release`), and
  spawn/fork-safe attach-by-name (segments are named, so a child started
  with any start method can open them).
* :class:`ShmAttachCache` — reader-side cache of attached segments:
  :meth:`ShmAttachCache.view` maps an array zero-copy (read-only),
  :meth:`ShmAttachCache.read` materializes a private copy.
* :func:`encode_payload` / :func:`decode_payload` — recursive
  array↔descriptor conversion through lists/tuples/dicts, leaving
  everything below the threshold (and object-dtype arrays) untouched.

Cleanup guarantees: segment *owners* never unlink — they only close their
mappings on exit — because an in-flight descriptor (e.g. a buffered
point-to-point message) may outlive its sender.  The engine's parent
process learns every segment name through ``shm_new`` announcements,
adds the router pool's own, and unlinks all of them when the job ends,
normally or not, so an aborted job or a hard-killed rank (``os._exit``)
leaks nothing.

The threshold defaults to :data:`DEFAULT_SHM_THRESHOLD` bytes and is
overridable via ``REPRO_SPMD_SHM_THRESHOLD`` (an integer byte count, or
``off`` to disable the data plane entirely).
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable

import numpy as np

from .envutil import env_float, env_str

__all__ = [
    "DEFAULT_SHM_THRESHOLD",
    "SHM_DESCRIPTOR_NBYTES",
    "SHM_THRESHOLD_ENV",
    "ShmAttachCache",
    "ShmDescriptor",
    "ShmPool",
    "decode_payload",
    "encode_payload",
    "iter_descriptors",
    "resolve_shm_threshold",
    "unlink_segment",
]

#: env var overriding the data-plane size threshold (bytes; "off" disables)
SHM_THRESHOLD_ENV = "REPRO_SPMD_SHM_THRESHOLD"

#: default minimum array size routed through shared memory — below this,
#: pickling through a warm pipe is cheaper than a segment round-trip
DEFAULT_SHM_THRESHOLD = 32 * 1024

#: control-plane cost of one descriptor on the wire (name + offset +
#: dtype + shape + lease bookkeeping, pickled)
SHM_DESCRIPTOR_NBYTES = 64

#: smallest segment ever allocated; size classes are powers of two above it
_MIN_SEGMENT = 4096

#: words that turn the data plane off (so do zero and negative counts)
_OFF_WORDS = {"off", "none", "no", "false", "disable", "disabled"}


def resolve_shm_threshold(threshold: int | None = None) -> int | None:
    """Pick the effective data-plane threshold in bytes, or ``None`` when
    the data plane is disabled.

    Precedence: explicit ``threshold`` argument, then the
    ``REPRO_SPMD_SHM_THRESHOLD`` environment variable, then
    :data:`DEFAULT_SHM_THRESHOLD`.  Zero/negative values and the words
    ``off``/``none``/``disable`` turn the plane off; anything else that
    is not a number is an :class:`~repro.runtime.envutil.EnvVarError`.
    """
    if threshold is None:
        if env_str(SHM_THRESHOLD_ENV, "").lower() in _OFF_WORDS:
            return None
        threshold = env_float(SHM_THRESHOLD_ENV, DEFAULT_SHM_THRESHOLD)
    if threshold <= 0:
        return None
    return int(threshold)


@dataclass(frozen=True)
class ShmDescriptor:
    """Wire-format stand-in for a numpy array living in a shared segment.

    Travels over the engine pipes instead of the array's bytes; any
    process can reconstruct the array with ``(segment, offset, dtype,
    shape)`` alone.  ``owner``/``token`` identify the lease so the segment
    can be recycled once every consumer is done.
    """

    segment: str          #: SharedMemory name (attach-by-name, any process)
    offset: int           #: byte offset of the array within the segment
    dtype: str            #: round-trippable dtype string (``arr.dtype.str``)
    shape: tuple          #: array shape
    nbytes: int           #: array payload bytes (the *shared*, unpickled bytes)
    owner: int            #: world rank whose pool owns the segment (−1: router)
    token: int            #: lease token, unique per owner


def _writable_ok(arr: np.ndarray) -> bool:
    """True when the array can travel as raw bytes (no object references)."""
    return not arr.dtype.hasobject


class ShmPool:
    """Owner-side pool of shared-memory segments with free-list reuse.

    One pool per rank process.  :meth:`place` copies an array into a
    segment (reusing a free one of the right size class when possible)
    and returns the lease's descriptor; :meth:`release` returns leases to
    the free list once the engine has confirmed every consumer is done.
    The pool closes its mappings on :meth:`close` but never unlinks —
    unlinking is the engine parent's job (see :func:`unlink_segment`),
    which keeps cleanup correct even when the owner exits first.
    """

    def __init__(self, owner: int, prefix: str):
        self.owner = owner
        self.prefix = prefix
        self._seq = 0
        self._next_token = 0
        #: size class -> reusable segments
        self._free: dict[int, list[shared_memory.SharedMemory]] = {}
        #: token -> (size class, segment) of leases currently in flight
        self._inflight: dict[int, tuple[int, shared_memory.SharedMemory]] = {}
        #: every segment this pool ever created, by name
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        #: names created since the last :meth:`drain_created` (the engine
        #: announces these to the router for guaranteed cleanup)
        self._created: list[str] = []
        self._closed = False

    # -- introspection --------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def n_inflight(self) -> int:
        return len(self._inflight)

    def segment_names(self) -> tuple[str, ...]:
        """Names of every segment this pool ever created."""
        return tuple(self._segments)

    def drain_created(self) -> list[str]:
        """Names of segments created since the last drain (for ``shm_new``
        announcements); clears the pending list."""
        out, self._created = self._created, []
        return out

    # -- lease lifecycle ------------------------------------------------

    @staticmethod
    def size_class(nbytes: int) -> int:
        """Segments are allocated in power-of-two classes so reuse works
        across payloads of similar (not identical) size."""
        if nbytes <= _MIN_SEGMENT:
            return _MIN_SEGMENT
        return 1 << (int(nbytes) - 1).bit_length()

    def _acquire(self, nbytes: int) -> tuple[int, shared_memory.SharedMemory]:
        cls = self.size_class(nbytes)
        bucket = self._free.get(cls)
        if bucket:
            return cls, bucket.pop()
        name = f"{self.prefix}r{self.owner}s{self._seq}"
        self._seq += 1
        seg = shared_memory.SharedMemory(name=name, create=True, size=cls)
        self._segments[seg.name] = seg
        self._created.append(seg.name)
        return cls, seg

    def place(self, arr: np.ndarray) -> ShmDescriptor:
        """Copy *arr* into a pooled segment; returns the lease descriptor.

        This is the data plane's single producer-side copy (versus
        pickling's serialize + pipe write + deserialize per hop).
        """
        if self._closed:
            raise RuntimeError("ShmPool is closed")
        arr = np.ascontiguousarray(arr)
        cls, seg = self._acquire(arr.nbytes)
        dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        np.copyto(dst, arr)
        token = self._next_token
        self._next_token += 1
        self._inflight[token] = (cls, seg)
        return ShmDescriptor(
            segment=seg.name, offset=0, dtype=arr.dtype.str,
            shape=tuple(arr.shape), nbytes=int(arr.nbytes),
            owner=self.owner, token=token,
        )

    def release(self, tokens) -> None:
        """Return leases to the free list (consumers confirmed done)."""
        for token in tokens:
            entry = self._inflight.pop(token, None)
            if entry is not None:
                cls, seg = entry
                self._free.setdefault(cls, []).append(seg)

    # -- teardown -------------------------------------------------------

    def close(self) -> None:
        """Close every mapping (idempotent).  Does *not* unlink — the
        engine parent unlinks by name after the job, so descriptors in
        flight at owner exit stay readable."""
        if self._closed:
            return
        self._closed = True
        for seg in self._segments.values():
            try:
                seg.close()
            except (BufferError, OSError):
                pass
        self._free.clear()
        self._inflight.clear()

    def destroy(self) -> None:
        """Close *and* unlink every segment (for standalone pool use and
        tests; inside an engine job the parent owns unlinking)."""
        names = self.segment_names()
        self.close()
        for name in names:
            unlink_segment(name)
        self._segments.clear()


class ShmAttachCache:
    """Reader-side cache of attached segments (one attach per name, ever).

    Segment names are never recycled within a job — reuse keeps the same
    name on the same segment — so cached attachments stay valid for the
    pool's whole lifetime.
    """

    def __init__(self) -> None:
        self._attached: dict[str, shared_memory.SharedMemory] = {}

    def _segment(self, name: str) -> shared_memory.SharedMemory:
        seg = self._attached.get(name)
        if seg is None:
            seg = shared_memory.SharedMemory(name=name)
            self._attached[name] = seg
        return seg

    def view(self, desc: ShmDescriptor) -> np.ndarray:
        """Zero-copy read-only view of the descriptor's array."""
        seg = self._segment(desc.segment)
        arr = np.ndarray(desc.shape, dtype=np.dtype(desc.dtype),
                         buffer=seg.buf, offset=desc.offset)
        arr.flags.writeable = False
        return arr

    def read(self, desc: ShmDescriptor) -> np.ndarray:
        """Private (writable) copy of the descriptor's array."""
        return self.view(desc).copy()

    def close(self) -> None:
        """Drop every attachment (views into them become invalid)."""
        for seg in self._attached.values():
            try:
                seg.close()
            except (BufferError, OSError):
                pass
        self._attached.clear()


def unlink_segment(name: str) -> bool:
    """Best-effort unlink of a segment by name (the engine parent's
    cleanup primitive); returns True when a segment was removed."""
    try:
        seg = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return False
    try:
        seg.close()
    except (BufferError, OSError):
        pass
    try:
        seg.unlink()
    except (FileNotFoundError, OSError):
        return False
    return True


# ----------------------------------------------------------------------
# payload conversion
# ----------------------------------------------------------------------


def encode_payload(
    obj: Any,
    pool: ShmPool,
    threshold: int,
    on_place: Callable[[ShmDescriptor], None] | None = None,
) -> Any:
    """Replace every numpy array of ``nbytes >= threshold`` reachable
    through lists/tuples/dicts with a pooled :class:`ShmDescriptor`.

    Arrays below the threshold, object-dtype arrays, scalars and foreign
    objects pass through untouched (they keep travelling pickled).
    ``on_place`` observes every descriptor created (byte accounting).
    """
    if isinstance(obj, np.ndarray):
        if obj.nbytes >= threshold and _writable_ok(obj):
            desc = pool.place(obj)
            if on_place is not None:
                on_place(desc)
            return desc
        return obj
    if isinstance(obj, list):
        return [encode_payload(x, pool, threshold, on_place) for x in obj]
    if isinstance(obj, tuple):
        return tuple(encode_payload(x, pool, threshold, on_place)
                     for x in obj)
    if isinstance(obj, dict):
        return {k: encode_payload(v, pool, threshold, on_place)
                for k, v in obj.items()}
    return obj


def decode_payload(
    obj: Any,
    cache: ShmAttachCache,
    *,
    copy: bool,
    consumed: list | None = None,
) -> Any:
    """Inverse of :func:`encode_payload`: materialize every descriptor.

    ``copy=False`` returns zero-copy read-only views (the router's path —
    data consumed within the collective step); ``copy=True`` returns
    private copies (results handed to user code, which may keep them past
    the lease).  Consumed descriptors are appended to ``consumed`` so the
    caller can route lease releases.
    """
    if isinstance(obj, ShmDescriptor):
        if consumed is not None:
            consumed.append(obj)
        return cache.read(obj) if copy else cache.view(obj)
    if isinstance(obj, list):
        return [decode_payload(x, cache, copy=copy, consumed=consumed)
                for x in obj]
    if isinstance(obj, tuple):
        return tuple(decode_payload(x, cache, copy=copy, consumed=consumed)
                     for x in obj)
    if isinstance(obj, dict):
        return {k: decode_payload(v, cache, copy=copy, consumed=consumed)
                for k, v in obj.items()}
    return obj


def iter_descriptors(obj: Any):
    """Yield every :class:`ShmDescriptor` reachable through containers."""
    if isinstance(obj, ShmDescriptor):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from iter_descriptors(x)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from iter_descriptors(v)

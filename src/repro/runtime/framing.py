"""Length-prefixed binary framing for the TCP engine's wire protocol.

Every message the TCP backend moves — engine requests and replies,
heartbeats, the rendezvous handshake — is one *frame*:

.. code-block:: text

    +-------+---------+----------------+--------------+------ ... ------+
    | magic | version | body length    | header CRC32 | pickled body    |
    | 2 B   | 1 B     | 8 B big-endian | 4 B          | `length` bytes  |
    +-------+---------+----------------+--------------+------ ... ------+

The design goals, in order:

* **Never hang on bad input.**  A frame is either decodable from a byte
  buffer right now, or raises a *typed* error that says why: the buffer
  is short (:class:`FrameTruncatedError` — the streaming signal for
  "read more"), the header is damaged (:class:`FrameCorruptedError`),
  or the declared body is implausibly large
  (:class:`FrameOversizeError`).  The CRC32 over the fixed-size prefix
  is what makes a *corrupted length field* detectable: without it, a
  flipped length byte would silently make the reader wait for gigabytes
  that never arrive.
* **Exact transport accounting.**  Frames are encoded to one `bytes`
  object whose length — header included — is what actually crosses the
  socket, so the perf trackers' ``add_transport`` hook measures real
  wire bytes.  The simulated machine model never sees them: each rank
  books the *logical* size of what it sends on its ledger before
  anything is framed, so the model never depends on the transport.
* **Oversize guard.**  ``REPRO_SPMD_TCP_MAX_FRAME`` (bytes) bounds the
  body length both on encode and on decode; a peer announcing a larger
  frame is treated as broken rather than buffered.

Bodies are pickled with the highest protocol — identical in spirit to
the process backend's pipe serialization, with numpy arrays carried via
their efficient buffer reducers.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any

from .envutil import env_int
from .errors import SpmdError

__all__ = [
    "DEFAULT_MAX_FRAME",
    "FRAME_HEADER_NBYTES",
    "FrameAssembler",
    "FrameCorruptedError",
    "FrameError",
    "FrameOversizeError",
    "FrameTruncatedError",
    "MAX_FRAME_ENV",
    "decode_frame",
    "encode_frame",
    "resolve_max_frame",
]

#: first bytes of every frame ("RF" = repro frame)
MAGIC = b"RF"

#: wire-format version; bumped on any incompatible header/body change
VERSION = 1

#: magic + version + body length (the CRC-protected prefix)
_PREFIX = struct.Struct("!2sBQ")

#: CRC32 of the prefix, appended to it
_CRC = struct.Struct("!I")

#: total fixed header size preceding every body
FRAME_HEADER_NBYTES = _PREFIX.size + _CRC.size

#: default upper bound on one frame's body (2 GiB)
DEFAULT_MAX_FRAME = 1 << 31

#: environment override for the per-frame body-size guard (bytes)
MAX_FRAME_ENV = "REPRO_SPMD_TCP_MAX_FRAME"


class FrameError(SpmdError):
    """Base class for wire-framing failures on the TCP transport."""


class FrameTruncatedError(FrameError):
    """The buffer ends before the frame does.

    On a live stream this simply means "read more bytes"; at end of
    stream it means the peer died mid-frame.
    """


class FrameCorruptedError(FrameError):
    """The frame header (magic, version, or the CRC-protected length
    prefix) or the pickled body is damaged — the stream is unusable."""


class FrameOversizeError(FrameError):
    """A frame's declared body exceeds the configured maximum — either
    refused on encode, or announced by a (broken or hostile) peer."""


def resolve_max_frame(max_frame: int | None = None) -> int:
    """Pick the effective per-frame body bound: explicit argument, then
    the ``REPRO_SPMD_TCP_MAX_FRAME`` environment variable, then
    :data:`DEFAULT_MAX_FRAME`."""
    if max_frame is None:
        max_frame = env_int(MAX_FRAME_ENV, DEFAULT_MAX_FRAME)
    if max_frame <= 0:
        raise ValueError(f"max_frame must be positive, got {max_frame}")
    return int(max_frame)


def encode_frame(obj: Any, *, max_frame: int | None = None) -> bytes:
    """Serialize ``obj`` into one self-delimiting frame.

    The returned length (header + body) is exactly what the socket will
    carry — use it for transport accounting.
    """
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    limit = resolve_max_frame(max_frame)
    if len(body) > limit:
        raise FrameOversizeError(
            f"refusing to send a {len(body)}-byte frame body "
            f"(max_frame={limit}); raise {MAX_FRAME_ENV} if intentional"
        )
    prefix = _PREFIX.pack(MAGIC, VERSION, len(body))
    return prefix + _CRC.pack(zlib.crc32(prefix)) + body


def decode_frame(buf, *, max_frame: int | None = None) -> tuple[Any, int]:
    """Decode one frame from the head of ``buf`` (bytes-like).

    Returns ``(obj, consumed)`` where ``consumed`` is the whole frame's
    byte length.  Raises :class:`FrameTruncatedError` when ``buf`` holds
    less than one full frame (the streaming "need more" signal),
    :class:`FrameCorruptedError` on a damaged header or body, and
    :class:`FrameOversizeError` when the (CRC-validated) length exceeds
    the bound.  Never blocks: this is pure buffer inspection.
    """
    buf = memoryview(buf)
    if len(buf) < FRAME_HEADER_NBYTES:
        raise FrameTruncatedError(
            f"frame header truncated: have {len(buf)} of "
            f"{FRAME_HEADER_NBYTES} header bytes"
        )
    magic, version, length = _PREFIX.unpack_from(buf, 0)
    (crc,) = _CRC.unpack_from(buf, _PREFIX.size)
    if crc != zlib.crc32(bytes(buf[:_PREFIX.size])):
        raise FrameCorruptedError(
            "frame header CRC mismatch (corrupted length prefix?)"
        )
    if magic != MAGIC:
        raise FrameCorruptedError(f"bad frame magic {bytes(magic)!r}")
    if version != VERSION:
        raise FrameCorruptedError(
            f"unsupported frame version {version} (expected {VERSION})"
        )
    limit = resolve_max_frame(max_frame)
    if length > limit:
        raise FrameOversizeError(
            f"peer announced a {length}-byte frame body (max_frame={limit})"
        )
    total = FRAME_HEADER_NBYTES + length
    if len(buf) < total:
        raise FrameTruncatedError(
            f"frame body truncated: have {len(buf) - FRAME_HEADER_NBYTES} "
            f"of {length} body bytes"
        )
    try:
        obj = pickle.loads(buf[FRAME_HEADER_NBYTES:total])
    except Exception as exc:
        raise FrameCorruptedError(
            f"frame body undecodable: {type(exc).__name__}: {exc}"
        ) from exc
    return obj, total


class FrameAssembler:
    """Incremental frame parser for a byte stream.

    Feed it whatever the socket produced; it returns every frame that
    completed, in order, and buffers the trailing partial frame for the
    next feed.  Corruption and oversize raise immediately (the caller
    drops the peer); truncation never raises here — it is the normal
    between-reads state, visible as :attr:`pending` buffered bytes.
    """

    __slots__ = ("_buf", "_max")

    def __init__(self, *, max_frame: int | None = None):
        self._buf = bytearray()
        self._max = resolve_max_frame(max_frame)

    @property
    def pending(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return len(self._buf)

    def feed(self, data) -> list[tuple[Any, int]]:
        """Absorb ``data``; return ``[(obj, frame_nbytes), ...]`` for
        every frame completed by it."""
        self._buf += data
        out: list[tuple[Any, int]] = []
        while True:
            try:
                obj, used = decode_frame(self._buf, max_frame=self._max)
            except FrameTruncatedError:
                return out
            del self._buf[:used]
            out.append((obj, used))

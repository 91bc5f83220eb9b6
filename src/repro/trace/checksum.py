"""CRC32 framing for binary traces.

Tracefs offers "optional checksumming ... of output" (§4.2).  A frame is
``length (u32) | crc32 (u32) | payload``; readers verify before parsing,
so bit rot or truncation is detected rather than silently mis-decoded.
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple

from repro.errors import TraceChecksumError, TraceTruncatedError

__all__ = ["frame", "unframe", "crc32"]

_HEADER = struct.Struct("<II")


def crc32(data: bytes) -> int:
    """Stable CRC32 (unsigned)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def frame(payload: bytes, with_checksum: bool = True) -> bytes:
    """Wrap a payload in a length+crc header (crc 0 disables verification)."""
    digest = crc32(payload) if with_checksum else 0
    return _HEADER.pack(len(payload), digest) + payload


def unframe(data: bytes, offset: int = 0) -> Tuple[bytes, int]:
    """Read one frame at ``offset``; returns ``(payload, next_offset)``.

    Raises :class:`TraceTruncatedError` on short data and
    :class:`TraceChecksumError` on digest mismatch.
    """
    if offset + _HEADER.size > len(data):
        raise TraceTruncatedError(
            "frame header truncated at offset %d" % offset
        )
    length, digest = _HEADER.unpack_from(data, offset)
    start = offset + _HEADER.size
    end = start + length
    if end > len(data):
        raise TraceTruncatedError(
            "frame payload truncated: need %d bytes at %d, have %d"
            % (length, start, len(data) - start)
        )
    payload = data[start:end]
    if digest != 0 and crc32(payload) != digest:
        raise TraceChecksumError("frame at offset %d failed CRC32" % offset)
    return payload, end

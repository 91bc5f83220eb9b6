"""Decode one trace file's bytes, whichever of the two formats they hold.

The binary format (:mod:`repro.trace.binary_format`) starts with a magic
number; anything else must be the human-readable text format
(:mod:`repro.trace.text_format`).
"""

from __future__ import annotations

from repro.errors import TraceFormatError
from repro.trace import binary_format, text_format
from repro.trace.records import TraceFile

__all__ = ["decode_trace_bytes"]


def decode_trace_bytes(data: bytes) -> TraceFile:
    """Decode one trace file's bytes: binary if they start with the
    binary format's magic, else UTF-8 text.

    Raises :class:`~repro.errors.TraceFormatError` (never a
    ``UnicodeDecodeError``) for bytes that are neither.
    """
    if data[: len(binary_format.MAGIC)] == binary_format.MAGIC:
        return binary_format.decode_trace_file(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            "not a binary trace and not UTF-8 text: %s" % exc
        ) from None
    return text_format.decode_trace_file(text)

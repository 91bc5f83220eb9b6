"""Decode one trace file's bytes, whichever of the two formats they hold.

The binary format (:mod:`repro.trace.binary_format`) starts with a magic
number; anything else must be the human-readable text format
(:mod:`repro.trace.text_format`).

Every trace from outside the program — a file given to ``store ingest``,
``zoo replay``, ``summarize``, ``convert`` or ``anonymize``, and every
service upload — is decoded here, so this is where a trace is refused
whose finite times still overflow: an event whose ``timestamp +
duration``, or a file whose total duration, is past the largest float
could be archived but never summarized or reported on.  The decoders'
own walkers refuse only values that are not finite themselves, so
archive reads pay nothing for this rule.
"""

from __future__ import annotations

import math

from repro.errors import TraceFormatError
from repro.trace import binary_format, text_format
from repro.trace.records import TraceFile

__all__ = ["decode_trace_bytes"]


def decode_trace_bytes(data: bytes) -> TraceFile:
    """Decode one trace file's bytes: binary if they start with the
    binary format's magic, else UTF-8 text.

    Raises :class:`~repro.errors.TraceFormatError` (never a
    ``UnicodeDecodeError``) for bytes that are neither, and for a trace
    whose end times or total duration overflow.
    """
    if data[: len(binary_format.MAGIC)] == binary_format.MAGIC:
        tf = binary_format.decode_trace_file(data)
    else:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                "not a binary trace and not UTF-8 text: %s" % exc
            ) from None
        tf = text_format.decode_trace_file(text)
    _require_finite_sums(tf)
    return tf


def _require_finite_sums(tf: TraceFile) -> None:
    """Refuse finite times whose sums are not: each event's end, and the
    total duration, summed in capture order as the archive's segment
    summary sums them."""
    total = 0.0
    for i, e in enumerate(tf.events):
        total += e.duration
        if not math.isfinite(e.timestamp + e.duration):
            raise TraceFormatError(
                "non-finite end time: event %d's timestamp %r + duration %r "
                "overflows" % (i, e.timestamp, e.duration)
            )
    if not math.isfinite(total):
        raise TraceFormatError(
            "non-finite total duration: the durations of %d events sum past "
            "the largest float" % len(tf.events)
        )

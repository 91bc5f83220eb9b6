"""Trace data model, codecs, anonymization, and merging.

This package is the "single trace-data API" sketched in the paper's future
work (§6): one event model shared by all three frameworks, with codecs for
the formats the taxonomy distinguishes (human-readable vs. binary, §3.1
"Trace data format"), anonymization engines (§3.1 "Anonymization"), and a
merge tool that aggregates heterogeneous per-node traces onto one timeline.
"""

from repro.errors import TraceFormatError
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile, TraceBundle, BarrierStamp

__all__ = [
    "EventLayer",
    "TraceEvent",
    "TraceFile",
    "TraceBundle",
    "BarrierStamp",
    "decode_trace_bytes",
]


def decode_trace_bytes(data: bytes) -> TraceFile:
    """Decode one trace file's bytes: binary if they start with the
    binary format's magic, else UTF-8 text.

    Raises :class:`~repro.errors.TraceFormatError` (never a
    ``UnicodeDecodeError``) for bytes that are neither.
    """
    from repro.trace import binary_format, text_format

    if data[: len(binary_format.MAGIC)] == binary_format.MAGIC:
        return binary_format.decode_trace_file(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            "not a binary trace and not UTF-8 text: %s" % exc
        ) from None
    return text_format.decode_trace_file(text)

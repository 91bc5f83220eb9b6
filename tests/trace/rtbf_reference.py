"""Reference implementations of the RTBF codec and the segment summary.

These are the straightforward per-event, per-field versions that the
archive's segment bytes were first defined by.  Segment bytes feed run
ids, dedup and the ``events`` aggregate's tie order, so the optimized
:mod:`repro.trace.binary_format` encoder and
:func:`repro.store.segments.summarize_segment` must agree with these
exactly; ``test_rtbf_identity.py`` checks that they do.

:func:`to_event` is the row-at-a-time event builder the decoder used
before it built a segment's events in one batch: six UTF-8 decodes, one
``json.loads`` and one keyword constructor per record.  The batch
builder must give the same events, and refuse the same records with the
same errors; ``test_event_builder.py`` checks that it does.
"""

from __future__ import annotations

import json
import struct
from typing import Dict

from repro.errors import TraceFormatError
from repro.store.segments import SegmentMeta
from repro.trace.checksum import frame
from repro.trace.compressio import compress
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile

_FIXED = struct.Struct("<ddBIqqqB")
_LAYER_CODE = {layer: i for i, layer in enumerate(EventLayer)}
_F_RANK, _F_FD, _F_NBYTES, _F_OFFSET, _F_PATH, _F_RESULT = (1 << i for i in range(6))


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise TraceFormatError("string too long for binary record")
    return struct.pack("<H", len(raw)) + raw


def encode_event_record(event: TraceEvent) -> bytes:
    flags = 0
    rank = event.rank if event.rank is not None else 0
    if event.rank is not None:
        flags |= _F_RANK
    fd = event.fd if event.fd is not None else 0
    if event.fd is not None:
        flags |= _F_FD
    nbytes = event.nbytes if event.nbytes is not None else 0
    if event.nbytes is not None:
        flags |= _F_NBYTES
    off = event.offset if event.offset is not None else 0
    if event.offset is not None:
        flags |= _F_OFFSET
    if event.path is not None:
        flags |= _F_PATH
    if event.result is not None:
        flags |= _F_RESULT
    fixed = _FIXED.pack(
        event.timestamp,
        event.duration,
        _LAYER_CODE[event.layer],
        event.pid,
        fd,
        nbytes,
        off,
        flags,
    )
    parts = [
        fixed,
        struct.pack("<i", rank),
        _pack_str(event.name),
        _pack_str(event.hostname),
        _pack_str(event.user),
        _pack_str(event.path or ""),
        _pack_str("" if event.result is None else str(event.result)),
        _pack_str(json.dumps(list(event.args), separators=(",", ":"))),
    ]
    return b"".join(parts)


def encode_trace_file(
    tf: TraceFile,
    compressed: bool = True,
    checksum: bool = True,
    block_records: int = 128,
) -> bytes:
    if block_records < 1:
        raise TraceFormatError("block_records must be >= 1")
    header = json.dumps(
        {
            "hostname": tf.hostname,
            "pid": tf.pid,
            "rank": tf.rank,
            "framework": tf.framework,
            "n_events": len(tf),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    out = [b"RTBF", struct.pack("<H", 1), frame(header, with_checksum=checksum)]
    for i in range(0, len(tf.events), block_records):
        chunk = tf.events[i : i + block_records]
        body = struct.pack("<I", len(chunk)) + b"".join(
            encode_event_record(e) for e in chunk
        )
        out.append(frame(compress(body, enabled=compressed), with_checksum=checksum))
    return b"".join(out)


def summarize_segment(tf: TraceFile, rank: int, sha256: str, encoded_bytes: int) -> SegmentMeta:
    ops: Dict[str, int] = {}
    layers: Dict[str, int] = {}
    t_min = 0.0
    t_max = 0.0
    total_duration = 0.0
    payload = 0
    for i, e in enumerate(tf.events):
        ops[e.name] = ops.get(e.name, 0) + 1
        layer = e.layer.value
        layers[layer] = layers.get(layer, 0) + 1
        total_duration += e.duration
        if e.nbytes is not None:
            payload += e.nbytes
        if i == 0:
            t_min = e.timestamp
            t_max = e.end_timestamp
        else:
            if e.timestamp < t_min:
                t_min = e.timestamp
            if e.end_timestamp > t_max:
                t_max = e.end_timestamp
    return SegmentMeta(
        rank=rank,
        sha256=sha256,
        n_events=len(tf.events),
        t_min=t_min,
        t_max=t_max,
        total_duration=total_duration,
        payload_bytes=payload,
        encoded_bytes=encoded_bytes,
        ops=tuple(sorted(ops.items())),
        layers=tuple(sorted(layers.items())),
    )


_CODE_LAYER = {i: layer for layer, i in _LAYER_CODE.items()}


def _texts(raws):
    try:
        return [raw.decode("utf-8") for raw in raws]
    except UnicodeDecodeError:
        raise TraceFormatError("corrupt UTF-8 in string field") from None


def _parse_result(text):
    try:
        return int(text)
    except ValueError:
        return text


def _parse_args(text):
    try:
        return tuple(json.loads(text))
    except (ValueError, TypeError):
        raise TraceFormatError("corrupt args JSON in record") from None


def to_event(row: tuple) -> TraceEvent:
    """One event from one of the walker's raw record rows."""
    ts, dur, layer_code, pid, fd, nbytes, off, flags, rank = row[:9]
    name, hostname, user, path, result, args = _texts(row[9:])
    return TraceEvent(
        timestamp=ts,
        duration=dur,
        layer=_CODE_LAYER[layer_code],
        name=name,
        args=_parse_args(args),
        result=_parse_result(result) if flags & _F_RESULT else None,
        pid=pid,
        rank=rank if flags & _F_RANK else None,
        hostname=hostname,
        user=user,
        path=path if flags & _F_PATH else None,
        fd=fd if flags & _F_FD else None,
        nbytes=nbytes if flags & _F_NBYTES else None,
        offset=off if flags & _F_OFFSET else None,
    )

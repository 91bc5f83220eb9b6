"""Binary trace codec (the Tracefs-style format).

Tracefs generates "traces in binary format in order to save space and
facilitate automated parsing", with "optional checksumming, compression,
... or buffering (to improve performance) of output" (§2.2, §4.2).  This
codec has all four properties:

* **binary** — fixed struct header + length-prefixed strings per record;
* **checksummed** — every block travels in a CRC32 frame
  (:mod:`repro.trace.checksum`);
* **compressed** — optional zlib per block (:mod:`repro.trace.compressio`);
* **buffered** — records are grouped into blocks of ``block_records``
  events; larger blocks amortize framing/compression, the same trade the
  kernel module makes.

Layout::

    magic "RTBF" | version u16 | frame(header-json) | frame(block)*

where each block is ``compress(count u32 | record*)``.

The same format is the trace archive's segment format
(:mod:`repro.store.segments`).  One record walker serves every reader:
:func:`decode_trace_file` builds events, and :func:`read_columns`
projects per-field columns without building them.  The archive scan
takes the walker's raw records (:func:`read_records`) and projects them
itself (:func:`project`), so it can project the columns a filter reads
for every event and the rest only for the events the filter keeps.

The walker refuses a record whose timestamp or duration is not a
finite float (or whose duration is negative), as the text decoder
does, so no decoded trace holds a NaN or an infinity.
"""

from __future__ import annotations

import json
import math
import struct
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import TraceFormatError, TraceTruncatedError
from repro.trace.checksum import frame, unframe
from repro.trace.compressio import compress, decompress
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile

__all__ = [
    "FIELDS",
    "INT_RANGES",
    "MAX_STRING_BYTES",
    "check_string_limits",
    "encode_trace_file",
    "decode_trace_file",
    "encode_event_record",
    "decode_event_record",
    "project",
    "read_columns",
    "read_records",
]

MAGIC = b"RTBF"
VERSION = 1

#: What the magic check says about bytes in a format no longer read.
#: RTCF was the archive's columnar segment format.
_RETIRED_MAGIC = {
    b"RTCF": "legacy columnar (RTCF) segment: RTCF is no longer read; "
             "bf847e2 is the last commit that reads it (load the run "
             "there and re-ingest it)",
}

_RECORD = struct.Struct("<ddBIqqqBi")
# timestamp f8 | duration f8 | layer u8 | pid u32 | fd q | nbytes q |
# offset q | flags u8 | rank i32; six length-prefixed strings follow
_F_RANK = 1 << 0
_F_FD = 1 << 1
_F_NBYTES = 1 << 2
_F_OFFSET = 1 << 3
_F_PATH = 1 << 4
_F_RESULT = 1 << 5

_LAYER_CODE = {layer: i for i, layer in enumerate(EventLayer)}
_CODE_LAYER = {i: layer for layer, i in _LAYER_CODE.items()}
_CODE_LAYER_VALUE = {i: layer.value for i, layer in _CODE_LAYER.items()}

#: The logical fields :func:`read_columns` projects.
FIELDS = ("timestamp", "duration", "layer", "name", "args", "result", "pid",
          "rank", "hostname", "user", "path", "fd", "nbytes", "offset")

# Slots of the walker's raw record rows (see _read_records).
(_TS, _DUR, _LAYER, _PID, _FD, _NBYTES, _OFF, _FLAGS, _RANK,
 _NAME, _HOST, _USER, _PATH, _RESULT, _ARGS) = range(15)
_SLOT = {"timestamp": _TS, "duration": _DUR, "layer": _LAYER, "pid": _PID,
         "fd": _FD, "nbytes": _NBYTES, "offset": _OFF, "rank": _RANK,
         "name": _NAME, "hostname": _HOST, "user": _USER, "path": _PATH,
         "result": _RESULT, "args": _ARGS}
# Optional fields and the flag bit saying the slot holds a real value.
_PRESENCE = {"rank": _F_RANK, "fd": _F_FD, "nbytes": _F_NBYTES,
             "offset": _F_OFFSET, "path": _F_PATH}


def _code_range(code: str) -> Tuple[int, int]:
    """Inclusive range of one struct integer code (signed when lower-case)."""
    bits = 8 * struct.calcsize("<" + code)
    if code.islower():
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


#: Inclusive range of the values each integer field's record slot stores.
INT_RANGES = {
    name: _code_range(_RECORD.format[1 + _SLOT[name]])
    for name in ("pid", "rank", "fd", "nbytes", "offset")
}


#: Longest string body a record can hold (its length prefix is a u16).
MAX_STRING_BYTES = 0xFFFF
_LEN = struct.Struct("<H")
# One encoder for every args list: json.dumps would build a new one per call.
_ARGS_JSON = json.JSONEncoder(separators=(",", ":"))


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > MAX_STRING_BYTES:
        raise TraceFormatError("string too long for binary record")
    return _LEN.pack(len(raw)) + raw


class _Frames(dict):
    """Length-prefixed frames of the strings records repeat, built once.

    A trace names few distinct calls, hosts, users, paths and results,
    so each one's frame is packed on first use and reused after.
    """

    __slots__ = ()

    def __missing__(self, text: str) -> bytes:
        packed = self[text] = _pack_str(text)
        return packed


def _args_json(args: Tuple[Any, ...]) -> str:
    """``args`` as the compact JSON list ``json.dumps`` would write.

    Exact ints and strs (nearly every argument) are rendered here; any
    other element goes through the shared encoder, which renders it the
    same way it would inside the list.
    """
    return "[" + ",".join([
        str(a) if type(a) is int
        else _quote(a) if type(a) is str
        else _ARGS_JSON.encode(a)
        for a in args
    ]) + "]"


def _pack_records(events: Sequence[TraceEvent], frames: _Frames) -> bytes:
    """Pack ``events`` back to back: one struct and six strings each."""
    pack = _RECORD.pack
    layer_code = _LAYER_CODE
    parts: List[bytes] = []
    extend = parts.extend
    for e in events:
        flags = 0
        rank = e.rank
        if rank is None:
            rank = 0
        else:
            flags = _F_RANK
        fd = e.fd
        if fd is None:
            fd = 0
        else:
            flags |= _F_FD
        nbytes = e.nbytes
        if nbytes is None:
            nbytes = 0
        else:
            flags |= _F_NBYTES
        off = e.offset
        if off is None:
            off = 0
        else:
            flags |= _F_OFFSET
        path = e.path
        if path is not None:
            flags |= _F_PATH
        result = e.result
        if result is None:
            result = ""
        else:
            flags |= _F_RESULT
            if type(result) is not str:
                result = str(result)
        extend((
            pack(e.timestamp, e.duration, layer_code[e.layer], e.pid,
                 fd, nbytes, off, flags, rank),
            frames[e.name],
            frames[e.hostname],
            frames[e.user],
            frames[path or ""],
            frames[result],
            _pack_str(_args_json(e.args)),
        ))
    return b"".join(parts)


def encode_event_record(event: TraceEvent) -> bytes:
    """Serialize one event."""
    return _pack_records((event,), _Frames())


# A code point is at most 4 UTF-8 bytes, so no shorter string can overflow.
_SHORT_CHARS = MAX_STRING_BYTES // 4


def _args_may_overflow(args: Tuple[Any, ...]) -> bool:
    """Whether ``args``' JSON could exceed a record string, unrendered.

    A bound from the elements: a str escapes to at most 12 bytes a code
    point (an astral one becomes a surrogate pair) plus its quotes, and
    an int's digits are under a third of its bits.  Any other element
    counts as a possible overflow, so its args get rendered and measured.
    """
    bound = 1
    for a in args:
        if type(a) is str:
            bound += 12 * len(a) + 3
        elif type(a) is int:
            bound += a.bit_length() // 3 + 3
        else:
            return True
    return bound > MAX_STRING_BYTES


def check_string_limits(tf: TraceFile) -> None:
    """Raise :class:`TraceFormatError` if :func:`encode_trace_file` would.

    Each record string (name, hostname, user, path, the rendered result
    and the args JSON) holds at most :data:`MAX_STRING_BYTES`.  A decoded
    upload is checked before it is accepted, because the archive could
    not store it later.  Only strings long enough to overflow are
    measured exactly, and args are rendered only when their elements
    could overflow, so the check costs a small share of a decode.
    """
    short = _SHORT_CHARS
    for i, e in enumerate(tf.events):
        result = "" if e.result is None else str(e.result)
        chars = len(e.name) + len(e.hostname) + len(e.user) + len(e.path or "")
        if chars + len(result) > short or _args_may_overflow(e.args):
            _check_event(i, e, result)


def _check_event(index: int, e: TraceEvent, result: str) -> None:
    texts = (e.name, e.hostname, e.user, e.path or "", result)
    for field, text in zip(("name", "hostname", "user", "path", "result"), texts):
        if len(text) > _SHORT_CHARS:
            _check_size(index, field, len(text.encode("utf-8")))
    if _args_may_overflow(e.args):
        _check_size(index, "args JSON", len(_args_json(e.args).encode("utf-8")))


def _check_size(index: int, field: str, size: int) -> None:
    if size > MAX_STRING_BYTES:
        raise TraceFormatError(
            "event %d: %s is %d bytes; a binary record holds at most %d"
            % (index, field, size, MAX_STRING_BYTES)
        )


def _read_records(data: bytes, pos: int, count: int, rows: List[tuple]) -> int:
    """Append ``count`` raw records read at ``pos``; returns the end offset.

    The record walker's inner loop and the archive scan's hot path.  A
    row is the :data:`_RECORD` numbers followed by the six
    length-prefixed strings (name, hostname, user, path, rendered
    result, args JSON) as undecoded bytes: whoever reads a string
    decodes it (:func:`_texts`), so a projection pays only for its own
    columns.  The string reads are unrolled for speed.
    """
    unpack = _RECORD.unpack_from
    size = _RECORD.size
    end = len(data)
    layers = _CODE_LAYER
    inf = math.inf
    append = rows.append
    try:
        for _ in range(count):
            fixed = unpack(data, pos)
            pos += size
            n = data[pos] | data[pos + 1] << 8
            name = data[pos + 2 : pos + 2 + n]
            pos += 2 + n
            n = data[pos] | data[pos + 1] << 8
            host = data[pos + 2 : pos + 2 + n]
            pos += 2 + n
            n = data[pos] | data[pos + 1] << 8
            user = data[pos + 2 : pos + 2 + n]
            pos += 2 + n
            n = data[pos] | data[pos + 1] << 8
            path = data[pos + 2 : pos + 2 + n]
            pos += 2 + n
            n = data[pos] | data[pos + 1] << 8
            result = data[pos + 2 : pos + 2 + n]
            pos += 2 + n
            n = data[pos] | data[pos + 1] << 8
            args = data[pos + 2 : pos + 2 + n]
            pos += 2 + n
            if (pos > end or fixed[_LAYER] not in layers
                    or not 0.0 <= fixed[_DUR] < inf
                    or not -inf < fixed[_TS] < inf):
                _reject(fixed, pos > end)
            append(fixed + (name, host, user, path, result, args))
    except (IndexError, struct.error):
        raise TraceTruncatedError("record truncated") from None
    return pos


def _reject(fixed: tuple, truncated: bool) -> None:
    """Raise the typed error for a record the walker refused."""
    if truncated:
        raise TraceTruncatedError("record string body truncated")
    if fixed[_LAYER] not in _CODE_LAYER:
        raise TraceFormatError("unknown layer code %d" % fixed[_LAYER])
    if not (math.isfinite(fixed[_TS]) and math.isfinite(fixed[_DUR])):
        # NaN and infinities have no JSON rendering: a trace holding one
        # could be archived but never reported on.
        raise TraceFormatError(
            "non-finite timestamp or duration in record (%r, %r)"
            % (fixed[_TS], fixed[_DUR])
        )
    # A corrupted (negative) duration is a format error, not a
    # TraceEvent crash.
    raise TraceFormatError("invalid event fields in record")


def _texts(raws: Sequence[bytes]) -> List[str]:
    try:
        return [raw.decode("utf-8") for raw in raws]
    except UnicodeDecodeError:
        # Reachable with checksumming disabled: a flipped bit inside a
        # string body must surface as a format error, not a decode crash.
        raise TraceFormatError("corrupt UTF-8 in string field") from None


def _parse_result(text: str) -> Any:
    """A present result, re-parsed from its rendered text (int or str)."""
    try:
        return int(text)
    except ValueError:
        return text


def _parse_args(text: str) -> Tuple[Any, ...]:
    try:
        return tuple(json.loads(text))
    except (ValueError, TypeError):
        # TypeError covers corrupt-but-valid JSON scalars (e.g. "5"):
        # tuple(5) is not an args list, it is a damaged record.
        raise TraceFormatError("corrupt args JSON in record") from None


def _to_event(row: tuple) -> TraceEvent:
    ts, dur, layer_code, pid, fd, nbytes, off, flags, rank = row[:_NAME]
    name, hostname, user, path, result, args = _texts(row[_NAME:])
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


def decode_event_record(data: bytes, offset: int = 0) -> Tuple[TraceEvent, int]:
    """Deserialize one event at ``offset``; returns ``(event, next_offset)``."""
    rows: List[tuple] = []
    pos = _read_records(data, offset, 1, rows)
    return _to_event(rows[0]), pos


def encode_trace_file(
    tf: TraceFile,
    compressed: bool = True,
    checksum: bool = True,
    block_records: int = 128,
) -> bytes:
    """Serialize a whole trace file (see module docstring for layout)."""
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
    out = [MAGIC, struct.pack("<H", VERSION), frame(header, with_checksum=checksum)]
    frames = _Frames()
    for i in range(0, len(tf.events), block_records):
        chunk = tf.events[i : i + block_records]
        body = struct.pack("<I", len(chunk)) + _pack_records(chunk, frames)
        out.append(frame(compress(body, enabled=compressed), with_checksum=checksum))
    return b"".join(out)


def _walk(data: bytes) -> Tuple[Dict[str, Any], List[tuple]]:
    """Validate a whole trace and return ``(header, raw records)``.

    The one record walker: :func:`decode_trace_file` builds events from
    its rows and :func:`read_columns` projects them, so both check
    framing, checksums, counts and record bounds the same way.
    """
    if data[: len(MAGIC)] != MAGIC:
        raise TraceFormatError(
            _RETIRED_MAGIC.get(data[: len(MAGIC)], "not a binary trace (bad magic)")
        )
    pos = len(MAGIC)
    if pos + 2 > len(data):
        raise TraceTruncatedError("version truncated")
    (version,) = struct.unpack_from("<H", data, pos)
    if version != VERSION:
        raise TraceFormatError("unsupported binary trace version %d" % version)
    pos += 2
    header_raw, pos = unframe(data, pos)
    try:
        header = json.loads(header_raw.decode("utf-8"))
    except ValueError:
        raise TraceFormatError("corrupt header JSON") from None
    if not isinstance(header, dict):
        # json.loads happily returns lists/scalars; header.get on one
        # would crash below with an AttributeError instead of a typed error.
        raise TraceFormatError("header is not a JSON object")
    rows: List[tuple] = []
    while pos < len(data):
        payload, pos = unframe(data, pos)
        body = decompress(payload)
        if len(body) < 4:
            raise TraceTruncatedError("block count truncated")
        (count,) = struct.unpack_from("<I", body, 0)
        if _read_records(body, 4, count, rows) != len(body):
            raise TraceFormatError("trailing bytes inside block")
    expected = header.get("n_events")
    if expected is not None and expected != len(rows):
        raise TraceFormatError(
            "header said %s events, decoded %d" % (expected, len(rows))
        )
    return header, rows


def decode_trace_file(data: bytes) -> TraceFile:
    """Invert :func:`encode_trace_file`, verifying checksums."""
    header, rows = _walk(data)
    return TraceFile(
        [_to_event(row) for row in rows],
        hostname=header.get("hostname", ""),
        pid=header.get("pid", 0),
        rank=header.get("rank"),
        framework=header.get("framework", ""),
    )


def read_records(data: bytes) -> List[tuple]:
    """Walk a whole trace and return its raw records, unprojected.

    Validated like :func:`decode_trace_file` (same walker), except that
    no string field is decoded: :func:`project` decodes the strings of
    the records it is given.
    """
    return _walk(data)[1]


def project(rows: Sequence[tuple], field: str) -> List[Any]:
    """One logical column over raw records (:func:`read_records`).

    ``field`` is a :class:`~repro.trace.events.TraceEvent` field name
    (:data:`FIELDS`); the column equals that field across the events
    :func:`decode_trace_file` builds from the same records, except that
    ``layer`` comes as its string value.  Absent optionals are ``None``
    and ``result`` is int-or-str exactly as decode parses it.  A string
    field's UTF-8 (and the args JSON) is checked here, for the records
    given.
    """
    slot = _SLOT.get(field)
    if slot is None:
        raise TraceFormatError("unknown column requested: %r" % field)
    col = list(map(itemgetter(slot), rows))
    if slot >= _NAME:
        col = _texts(col)
    if field == "layer":
        return [_CODE_LAYER_VALUE[c] for c in col]
    if field == "args":
        return [_parse_args(t) for t in col]
    if field == "result":
        return [
            _parse_result(t) if row[_FLAGS] & _F_RESULT else None
            for t, row in zip(col, rows)
        ]
    bit = _PRESENCE.get(field)
    if bit is not None:
        return [v if row[_FLAGS] & bit else None for v, row in zip(col, rows)]
    return col


def read_columns(data: bytes, fields: Sequence[str]) -> Dict[str, List[Any]]:
    """Project logical per-event columns without building events.

    Each column is :func:`project` over every record of the trace.
    Validation matches decode (same walker), except that string fields
    (their UTF-8, the args JSON) are only checked when projected.
    """
    rows = read_records(data)
    return {field: project(rows, field) for field in fields}

"""Legacy columnar segment reader (RTCF, read-only).

Earlier releases could archive segments in this columnar layout instead
of the Tracefs-style binary format (:mod:`repro.trace.binary_format`).
Nothing writes it any more, but archives holding such segments must
still verify, load and query, so this module keeps the readers: full
decode and column projection.

Layout::

    magic "RTCF" | version u16 | frame(header-json) | frame(dictionary)
                 | frame(column)*   (fixed order, listed in the header)

Each column frame body is ``compress(enc-tag u8 | packed-bytes)``:
strings are u32 ids into the shared dictionary frame, integer columns
are delta-encoded (or raw, when a delta overflowed i64), floats are raw
little-endian doubles.  Nullable fields (rank, path, fd, nbytes, offset,
result) ride as dense arrays with a per-event ``flags`` bitmap column —
the RTBF flag bits transposed, plus one bit recording that a present
result was an int.  The header carries the event count and per-column
statistics.
"""

from __future__ import annotations

import json
import struct
from itertools import accumulate
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import TraceFormatError, TraceTruncatedError
from repro.trace.checksum import frame_span, unframe
from repro.trace.compressio import decompress
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile

__all__ = [
    "MAGIC",
    "VERSION",
    "COLUMNS",
    "decode_trace_file_columnar",
    "is_columnar",
    "read_header",
    "read_columns",
]

MAGIC = b"RTCF"
VERSION = 2

# v1-compatible per-event presence bits (the flags column), plus one new
# bit preserving whether a present result was an int or a string — v1
# re-parses the rendered text and cannot tell "5" from 5.
_F_RANK = 1 << 0
_F_FD = 1 << 1
_F_NBYTES = 1 << 2
_F_OFFSET = 1 << 3
_F_PATH = 1 << 4
_F_RESULT = 1 << 5
_F_RESULT_INT = 1 << 6

_LAYER_CODE = {layer: i for i, layer in enumerate(EventLayer)}
_CODE_LAYER = {i: layer for layer, i in _LAYER_CODE.items()}
_CODE_LAYER_VALUE = {i: layer.value for layer, i in _LAYER_CODE.items()}

#: Physical column file order.  ``enc`` picks the packer: ``u8`` raw
#: bytes, ``f8`` raw doubles, ``id`` dictionary ids, ``i64`` delta ints.
COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("flags", "u8"),
    ("timestamp", "f8"),
    ("duration", "f8"),
    ("layer", "u8"),
    ("name", "id"),
    ("pid", "i64"),
    ("rank", "i64"),
    ("hostname", "id"),
    ("user", "id"),
    ("path", "id"),
    ("fd", "i64"),
    ("nbytes", "i64"),
    ("offset", "i64"),
    ("result", "id"),
    ("args", "id"),
)

_COLUMN_INDEX = {name: i for i, (name, _enc) in enumerate(COLUMNS)}

#: Columns a logical field needs beyond itself (presence bits, strings).
_NEEDS_FLAGS = frozenset(["rank", "path", "fd", "nbytes", "offset", "result"])
_NEEDS_DICT = frozenset(["name", "hostname", "user", "path", "result", "args"])

# Raw/delta tag inside an integer column body (before compression).
_ENC_RAW = 0
_ENC_DELTA = 1

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def _unpack_dictionary(data: bytes) -> List[str]:
    if len(data) < 4:
        raise TraceTruncatedError("dictionary count truncated")
    (count,) = _U32.unpack_from(data, 0)
    pos = 4
    strings: List[str] = []
    for _ in range(count):
        if pos + 2 > len(data):
            raise TraceTruncatedError("dictionary entry length truncated")
        (n,) = _U16.unpack_from(data, pos)
        pos += 2
        if pos + n > len(data):
            raise TraceTruncatedError("dictionary entry body truncated")
        try:
            strings.append(data[pos : pos + n].decode("utf-8"))
        except UnicodeDecodeError:
            raise TraceFormatError("corrupt UTF-8 in dictionary entry") from None
        pos += n
    if pos != len(data):
        raise TraceFormatError("trailing bytes after dictionary")
    return strings


def _unpack_ints(data: bytes, n: int) -> List[int]:
    if not data:
        raise TraceTruncatedError("integer column truncated")
    tag = data[0]
    if len(data) != 1 + 8 * n:
        raise TraceFormatError(
            "integer column length mismatch: %d bytes for %d values"
            % (len(data) - 1, n)
        )
    values = struct.unpack_from("<%dq" % n, data, 1)
    if tag == _ENC_DELTA:
        return list(accumulate(values))
    if tag == _ENC_RAW:
        return list(values)
    raise TraceFormatError("unknown integer column encoding 0x%02x" % tag)


def _unpack_floats(data: bytes, n: int) -> List[float]:
    if len(data) != 8 * n:
        raise TraceFormatError(
            "float column length mismatch: %d bytes for %d values" % (len(data), n)
        )
    return list(struct.unpack("<%dd" % n, data))


def _unpack_u8(data: bytes, n: int) -> List[int]:
    if len(data) != n:
        raise TraceFormatError(
            "byte column length mismatch: %d bytes for %d values" % (len(data), n)
        )
    return list(data)


def is_columnar(data: bytes) -> bool:
    """True when ``data`` carries the columnar magic."""
    return data[: len(MAGIC)] == MAGIC


def _parse_args(text: str) -> Tuple[Any, ...]:
    try:
        return tuple(json.loads(text))
    except (ValueError, TypeError):
        raise TraceFormatError("corrupt args JSON in column") from None


def _read_preamble(data: bytes) -> Tuple[Dict[str, Any], int]:
    """Validate magic/version, return (header, offset-of-dictionary-frame)."""
    if not is_columnar(data):
        raise TraceFormatError("not a columnar trace (bad magic)")
    pos = len(MAGIC)
    if pos + 2 > len(data):
        raise TraceTruncatedError("version truncated")
    (version,) = _U16.unpack_from(data, pos)
    if version != VERSION:
        raise TraceFormatError("unsupported columnar trace version %d" % version)
    pos += 2
    header_raw, pos = unframe(data, pos)
    try:
        header = json.loads(header_raw.decode("utf-8"))
    except ValueError:
        raise TraceFormatError("corrupt header JSON") from None
    if not isinstance(header, dict):
        raise TraceFormatError("header is not a JSON object")
    if header.get("columns") != [name for name, _enc in COLUMNS]:
        raise TraceFormatError("unexpected column layout in header")
    return header, pos


def read_header(data: bytes) -> Dict[str, Any]:
    """The segment header (counts, file identity, per-column stats)."""
    header, _pos = _read_preamble(data)
    return header


def _decode_column(payload: bytes, enc: str, n: int):
    body = decompress(payload)
    if enc == "u8":
        return _unpack_u8(body, n)
    if enc == "f8":
        return _unpack_floats(body, n)
    return _unpack_ints(body, n)


def read_columns(data: bytes, fields: Sequence[str]) -> Dict[str, List[Any]]:
    """Project ``fields`` out of a columnar segment.

    Returns logical per-event lists (``None`` filled in for absent
    nullable slots, strings resolved through the dictionary, ``layer``
    rendered as its string value, ``args`` as a tuple) — the same shape
    :func:`repro.trace.binary_format.read_columns` returns.  Only the
    frames the projection needs are CRC-checked and decompressed;
    everything else is skipped by length prefix.
    """
    header, pos = _read_preamble(data)
    n = int(header.get("n_events", 0))
    want = set(fields)
    unknown = want.difference(_COLUMN_INDEX)
    if unknown:
        raise TraceFormatError("unknown columns requested: %s" % sorted(unknown))
    physical = set(want)
    if want & _NEEDS_FLAGS:
        physical.add("flags")
    need_dict = bool(want & _NEEDS_DICT)

    if need_dict:
        dict_payload, pos = unframe(data, pos)
        dictionary = _unpack_dictionary(decompress(dict_payload))
    else:
        dictionary = []
        pos = frame_span(data, pos)

    raw: Dict[str, List[Any]] = {}
    for col_name, enc in COLUMNS:
        if col_name in physical:
            payload, pos = unframe(data, pos)
            raw[col_name] = _decode_column(payload, enc, n)
        else:
            pos = frame_span(data, pos)
    if pos != len(data):
        raise TraceFormatError("trailing bytes after last column")

    flags = raw.get("flags")

    def strings(ids: List[int]) -> List[str]:
        try:
            return [dictionary[i] for i in ids]
        except IndexError:
            raise TraceFormatError("dictionary id out of range") from None

    out: Dict[str, List[Any]] = {}
    for field in fields:
        if field in out:
            continue
        col = raw[field]
        if field == "layer":
            try:
                out[field] = [_CODE_LAYER_VALUE[c] for c in col]
            except KeyError:
                raise TraceFormatError("unknown layer code in column") from None
        elif field in ("name", "hostname", "user"):
            out[field] = strings(col)
        elif field == "path":
            texts = strings(col)
            out[field] = [
                t if f & _F_PATH else None for t, f in zip(texts, flags)
            ]
        elif field == "result":
            texts = strings(col)
            vals: List[Any] = []
            for t, f in zip(texts, flags):
                if not f & _F_RESULT:
                    vals.append(None)
                elif f & _F_RESULT_INT:
                    vals.append(int(t))
                else:
                    vals.append(t)
            out[field] = vals
        elif field == "args":
            out[field] = [_parse_args(t) for t in strings(col)]
        elif field == "rank":
            out[field] = [v if f & _F_RANK else None for v, f in zip(col, flags)]
        elif field == "fd":
            out[field] = [v if f & _F_FD else None for v, f in zip(col, flags)]
        elif field == "nbytes":
            out[field] = [v if f & _F_NBYTES else None for v, f in zip(col, flags)]
        elif field == "offset":
            out[field] = [v if f & _F_OFFSET else None for v, f in zip(col, flags)]
        else:  # flags, timestamp, duration, pid — raw columns
            out[field] = col
    return out


def decode_trace_file_columnar(data: bytes) -> TraceFile:
    """Decode a whole columnar segment, verifying checksums."""
    header, pos = _read_preamble(data)
    n = int(header.get("n_events", 0))
    dict_payload, pos = unframe(data, pos)
    dictionary = _unpack_dictionary(decompress(dict_payload))

    cols: Dict[str, List[Any]] = {}
    for col_name, enc in COLUMNS:
        payload, pos = unframe(data, pos)
        cols[col_name] = _decode_column(payload, enc, n)
    if pos != len(data):
        raise TraceFormatError("trailing bytes after last column")

    def text(i: int) -> str:
        try:
            return dictionary[i]
        except IndexError:
            raise TraceFormatError("dictionary id out of range") from None

    events: List[TraceEvent] = []
    for i in range(n):
        f = cols["flags"][i]
        try:
            layer = _CODE_LAYER[cols["layer"][i]]
        except KeyError:
            raise TraceFormatError(
                "unknown layer code %d" % cols["layer"][i]
            ) from None
        result: Any = None
        if f & _F_RESULT:
            rendered = text(cols["result"][i])
            result = int(rendered) if f & _F_RESULT_INT else rendered
        args = _parse_args(text(cols["args"][i]))
        try:
            events.append(
                TraceEvent(
                    timestamp=cols["timestamp"][i],
                    duration=cols["duration"][i],
                    layer=layer,
                    name=text(cols["name"][i]),
                    args=args,
                    result=result,
                    pid=cols["pid"][i],
                    rank=cols["rank"][i] if f & _F_RANK else None,
                    hostname=text(cols["hostname"][i]),
                    user=text(cols["user"][i]),
                    path=text(cols["path"][i]) if f & _F_PATH else None,
                    fd=cols["fd"][i] if f & _F_FD else None,
                    nbytes=cols["nbytes"][i] if f & _F_NBYTES else None,
                    offset=cols["offset"][i] if f & _F_OFFSET else None,
                )
            )
        except (ValueError, TypeError):
            raise TraceFormatError("invalid event fields in column data") from None
    expected = header.get("n_events")
    if expected is not None and expected != len(events):
        raise TraceFormatError(
            "header said %s events, decoded %d" % (expected, len(events))
        )
    return TraceFile(
        events,
        hostname=header.get("hostname", ""),
        pid=header.get("pid", 0),
        rank=header.get("rank"),
        framework=header.get("framework", ""),
    )

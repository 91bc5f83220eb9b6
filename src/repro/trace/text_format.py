"""Human-readable trace codec in the LANL-Trace raw style (Figure 1).

One event per line::

    1159808385.170918 SYS_open("/etc/hosts", O_RDONLY, 0644) = 3 <0.000034>

Two dialects:

* ``annotated=True`` (default) appends a machine-readable tail
  (``\t# layer=syscall pid=10378 ...``) so decoding recovers the full
  :class:`~repro.trace.events.TraceEvent` — the codec round-trips;
* ``annotated=False`` renders exactly the paper's presentation (used by
  the Figure 1 outputs); decoding it recovers the visible fields only.

File-level metadata (hostname, pid, rank, framework) travels in ``##``
header lines.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TraceFormatError
from repro.trace.binary_format import INT_RANGES
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile

__all__ = ["encode_event", "decode_event", "encode_trace_file", "decode_trace_file"]

_EVENT_RE = re.compile(
    r"^(?P<ts>\d+\.\d+)\s+"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"\((?P<args>.*)\)\s*"
    r"(?:=\s*(?P<result>[^<#]*?))?\s*"
    r"(?:<(?P<dur>\d+\.\d+)>|<unfinished \.\.\.>)"
    r"(?:\s*\t?#\s*(?P<annot>.*))?$"
)


def _encode_arg(arg: Any) -> str:
    if isinstance(arg, str):
        return json.dumps(arg)
    return str(arg)


def _split_args(argstr: str) -> List[str]:
    """Split on commas that are not inside double quotes.

    Tracks backslash escapes properly: in ``"\\\\"`` the closing quote is
    preceded by a backslash that is itself escaped, so simple look-behind
    misclassifies it.
    """
    parts: List[str] = []
    buf: List[str] = []
    in_quote = False
    escaped = False
    for c in argstr:
        if in_quote:
            buf.append(c)
            if escaped:
                escaped = False
            elif c == "\\":
                escaped = True
            elif c == '"':
                in_quote = False
        elif c == '"':
            in_quote = True
            buf.append(c)
        elif c == ",":
            parts.append("".join(buf).strip())
            buf = []
        else:
            buf.append(c)
    tail = "".join(buf).strip()
    if tail:
        parts.append(tail)
    return parts


def _decode_arg(text: str) -> Any:
    if text.startswith('"'):
        try:
            return json.loads(text)
        except ValueError:
            raise TraceFormatError("bad string argument: %r" % text) from None
    try:
        return int(text)
    except ValueError:
        return text


# Annotated fields a TraceEvent cannot leave null.
_REQUIRED = frozenset(("pid", "hostname", "user"))


def _check_annotation(fields: Dict[str, Any], line: str) -> None:
    """Refuse annotated values that a binary record could not store.

    An integer field must be a JSON integer (a bool is not one) inside
    the range of its record slot (:data:`~repro.trace.binary_format.
    INT_RANGES`), and a string field a JSON string.
    """
    for name, (lo, hi) in INT_RANGES.items():
        value = fields[name]
        if value is None and name not in _REQUIRED:
            continue
        if type(value) is not int or not lo <= value <= hi:
            raise TraceFormatError(
                "annotation %s=%r is not an int in [%d, %d] on line: %r"
                % (name, value, lo, hi, line)
            )
    for name in ("hostname", "user", "path"):
        value = fields[name]
        if not isinstance(value, str) and (value is not None or name in _REQUIRED):
            raise TraceFormatError(
                "annotation %s=%r is not a string on line: %r" % (name, value, line)
            )


def encode_event(event: TraceEvent, annotated: bool = True) -> str:
    """Render one event as a raw-trace line."""
    args = ", ".join(_encode_arg(a) for a in event.args)
    if event.result is None:
        tail = "<unfinished ...>"
    else:
        tail = "= %s <%0.6f>" % (event.result, event.duration)
    line = "%0.6f %s(%s) %s" % (event.timestamp, event.name, args, tail)
    if annotated:
        annot = {
            "layer": event.layer.value,
            # The visible line omits duration for unfinished events; carry
            # it here so the annotated dialect round-trips exactly.
            "duration": event.duration,
            "pid": event.pid,
            "rank": event.rank,
            "hostname": event.hostname,
            "user": event.user,
            "path": event.path,
            "fd": event.fd,
            "nbytes": event.nbytes,
            "offset": event.offset,
        }
        line += "\t# " + json.dumps(annot, separators=(",", ":"))
    return line


def decode_event(line: str) -> TraceEvent:
    """Parse one raw-trace line back into a :class:`TraceEvent`."""
    m = _EVENT_RE.match(line.rstrip("\n"))
    if not m:
        raise TraceFormatError("unparseable trace line: %r" % line)
    args = tuple(_decode_arg(a) for a in _split_args(m.group("args")))
    result_text = m.group("result")
    result: Optional[Any]
    if result_text is None or result_text == "":
        result = None
    else:
        result_text = result_text.strip()
        try:
            result = int(result_text)
        except ValueError:
            result = result_text
    duration = float(m.group("dur")) if m.group("dur") else 0.0

    fields = dict(
        timestamp=float(m.group("ts")),
        duration=duration,
        layer=EventLayer.SYSCALL,
        name=m.group("name"),
        args=args,
        result=result,
    )
    annot_text = m.group("annot")
    if annot_text:
        try:
            annot = json.loads(annot_text)
            if not isinstance(annot, dict):
                raise ValueError("annotation is not an object")
            fields.update(
                layer=EventLayer(annot.get("layer", "syscall")),
                duration=annot.get("duration", duration),
                pid=annot.get("pid", 0),
                rank=annot.get("rank"),
                hostname=annot.get("hostname", ""),
                user=annot.get("user", ""),
                path=annot.get("path"),
                fd=annot.get("fd"),
                nbytes=annot.get("nbytes"),
                offset=annot.get("offset"),
            )
        except (ValueError, RecursionError):
            # A value nested past the recursion limit is as bad as any
            # other malformed annotation.
            raise TraceFormatError("bad annotation on line: %r" % line) from None
        _check_annotation(fields, line)
    try:
        event = TraceEvent(**fields)
    except (ValueError, TypeError):
        raise TraceFormatError("invalid event fields on line: %r" % line) from None
    try:
        finite = math.isfinite(event.timestamp) and math.isfinite(event.duration)
    except OverflowError:  # an annotated int duration beyond any float
        finite = False
    if not finite:
        # An over-long number parses to inf, and the annotation's JSON
        # may say NaN: neither can be stored or reported on.
        raise TraceFormatError(
            "non-finite timestamp or duration on line: %r" % line
        )
    return event


def encode_trace_file(tf: TraceFile, annotated: bool = True) -> str:
    """Render a whole per-source trace (with ``##`` metadata headers)."""
    header = [
        "## repro-trace text v1",
        "## hostname=%s pid=%d rank=%s framework=%s"
        % (tf.hostname, tf.pid, tf.rank if tf.rank is not None else "-", tf.framework),
    ]
    lines = [encode_event(e, annotated=annotated) for e in tf.events]
    return "\n".join(header + lines) + "\n"


_HEADER_RE = re.compile(
    r"^## hostname=(?P<host>\S*) pid=(?P<pid>\d+) rank=(?P<rank>\S+) framework=(?P<fw>\S*)$"
)


def decode_trace_file(text: str) -> TraceFile:
    """Parse a text trace back into a :class:`TraceFile`."""
    hostname, pid, rank, framework = "", 0, None, ""
    events = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("##"):
            m = _HEADER_RE.match(line)
            if m:
                hostname = m.group("host")
                pid = int(m.group("pid"))
                rank_text = m.group("rank")
                try:
                    rank = None if rank_text == "-" else int(rank_text)
                except ValueError:
                    raise TraceFormatError(
                        "header rank %r is not an int" % rank_text
                    ) from None
                framework = m.group("fw")
            continue
        if line.startswith("#"):
            continue
        events.append(decode_event(line))
    return TraceFile(events, hostname=hostname, pid=pid, rank=rank, framework=framework)

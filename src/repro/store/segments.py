"""Content-addressed trace segments: the archive's unit of storage.

A *segment* is one ``(run, rank)`` slice of a trace bundle — a
:class:`~repro.trace.records.TraceFile` — serialized in the Tracefs-style
binary format (RTBF, :mod:`repro.trace.binary_format`: CRC32-framed,
zlib-compressed record blocks) and addressed by the SHA-256 of its
encoded bytes.  Encoding is deterministic (fixed zlib level, canonical
field order), so re-ingesting an identical run re-derives the same
bytes, the same digest, and therefore the same on-disk file: the
archive dedups for free.

RTBF is the only segment format, read or written.  Both readers walk
its records once: :func:`decode_segment` rebuilds events and
:func:`segment_columns` projects logical columns without building
events.  The query scan takes the walked records themselves
(:meth:`~repro.store.bank.TraceBank.read_records`) and projects only
what it keeps.  A segment in the retired columnar format (RTCF) fails
the walker's magic check with an error that names bf847e2, the last
commit that reads RTCF; read through :class:`~repro.store.bank.TraceBank`
it is archive corruption (:func:`archive_errors`).

Every segment carries a :class:`SegmentMeta` summary in its run manifest —
time range, per-op and per-layer counts, payload bytes — which is what the
query engine's predicate pushdown consults to skip shards without reading
them.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.errors import StoreCorruptionError, TraceError
from repro.trace import binary_format
from repro.trace.records import TraceFile

__all__ = [
    "SegmentMeta",
    "archive_errors",
    "check_address",
    "content_address",
    "encode_segment",
    "decode_segment",
    "segment_columns",
    "summarize_segment",
]


def content_address(blob: bytes) -> str:
    """The segment's identity: SHA-256 hex digest of its encoded bytes."""
    return hashlib.sha256(blob).hexdigest()


def check_address(blob: bytes, sha: str) -> None:
    """Raise :class:`~repro.errors.StoreCorruptionError` unless ``blob``
    hashes to ``sha``."""
    got = content_address(blob)
    if got != sha:
        raise StoreCorruptionError(
            "segment content hash mismatch: manifest says %s, bytes are %s"
            % (sha[:12], got[:12])
        )


@contextmanager
def archive_errors(sha: str) -> Iterator[None]:
    """Report decode failures of archived bytes as archive corruption.

    The caller is reading the archive, not a user file, so a
    :class:`~repro.errors.TraceError` becomes a
    :class:`~repro.errors.StoreCorruptionError` naming the segment.
    """
    try:
        yield
    except TraceError as exc:
        raise StoreCorruptionError(
            "segment %s fails to decode: %s" % (sha[:12], exc)
        ) from exc


def encode_segment(tf: TraceFile) -> Tuple[bytes, str]:
    """Serialize one per-rank trace file as RTBF; returns ``(blob, sha256)``."""
    blob = binary_format.encode_trace_file(tf)
    return blob, content_address(blob)


def decode_segment(blob: bytes) -> TraceFile:
    """Decode an RTBF segment blob into a :class:`TraceFile`.

    Raises :class:`~repro.errors.TraceError` for bytes that are not a
    valid segment; callers reading the archive verify the address first
    and wrap this in :func:`archive_errors`.
    """
    return binary_format.decode_trace_file(blob)


def segment_columns(blob: bytes, fields: Sequence[str]) -> Dict[str, List[Any]]:
    """Project logical per-event columns out of one RTBF segment.

    ``fields`` are :class:`~repro.trace.events.TraceEvent` field names;
    columns come back as :func:`repro.trace.binary_format.read_columns`
    describes (``layer`` as its string value, ``None`` for absent
    optionals), without building events.
    """
    return binary_format.read_columns(blob, fields)


@dataclass(frozen=True)
class SegmentMeta:
    """Manifest-resident summary of one segment (the pushdown index entry).

    ``t_min``/``t_max`` span event start times through end times
    (``timestamp`` .. ``end_timestamp``); ``ops`` and ``layers`` are sorted
    ``(name, count)`` pairs so the dataclass hashes and renders canonically.
    """

    rank: int
    sha256: str
    n_events: int
    t_min: float
    t_max: float
    total_duration: float
    payload_bytes: int
    encoded_bytes: int
    ops: Tuple[Tuple[str, int], ...] = ()
    layers: Tuple[Tuple[str, int], ...] = ()

    def to_json(self) -> Dict[str, Any]:
        """Plain-JSON manifest rendering (sorted mappings, no tuples)."""
        return {
            "rank": self.rank,
            "sha256": self.sha256,
            "n_events": self.n_events,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "total_duration": self.total_duration,
            "payload_bytes": self.payload_bytes,
            "encoded_bytes": self.encoded_bytes,
            "ops": {name: count for name, count in self.ops},
            "layers": {name: count for name, count in self.layers},
        }

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "SegmentMeta":
        """Invert :meth:`to_json` (manifest load path)."""
        return SegmentMeta(
            rank=int(obj["rank"]),
            sha256=str(obj["sha256"]),
            n_events=int(obj["n_events"]),
            t_min=float(obj["t_min"]),
            t_max=float(obj["t_max"]),
            total_duration=float(obj["total_duration"]),
            payload_bytes=int(obj["payload_bytes"]),
            encoded_bytes=int(obj["encoded_bytes"]),
            ops=tuple(sorted((str(k), int(v)) for k, v in obj.get("ops", {}).items())),
            layers=tuple(
                sorted((str(k), int(v)) for k, v in obj.get("layers", {}).items())
            ),
        )

    # -- pushdown -----------------------------------------------------------

    def may_match(
        self,
        ranks=None,
        names=None,
        layers=None,
        since=None,
        until=None,
    ) -> bool:
        """Cheap necessary-condition check: can any event here match?

        ``False`` means the query engine may skip (prune) this segment
        without decoding it; ``True`` only promises the segment is worth
        scanning.  Time bounds compare against event *start* times, which
        is also what the scan-side window filter uses.
        """
        if ranks is not None and self.rank not in ranks:
            return False
        if self.n_events == 0:
            return False
        if since is not None and self.t_max < since:
            return False
        if until is not None and self.t_min >= until:
            return False
        if names is not None and not any(op in names for op, _ in self.ops):
            return False
        if layers is not None and not any(ly in layers for ly, _ in self.layers):
            return False
        return True


def summarize_segment(tf: TraceFile, rank: int, sha256: str, encoded_bytes: int) -> SegmentMeta:
    """Compute a :class:`SegmentMeta` over one trace file's events.

    Ingest's second pass over a segment, and what verify recomputes: it
    reads each field once and counts layers by member, taking each
    layer's string value only for the few distinct ones at the end.
    """
    events = tf.events
    ops: Dict[str, int] = {}
    by_layer: Dict[Any, int] = {}
    t_min = t_max = total_duration = 0.0
    payload = 0
    if events:
        t_min = events[0].timestamp
        t_max = t_min + events[0].duration
    for e in events:
        name = e.name
        ops[name] = ops.get(name, 0) + 1
        layer = e.layer
        by_layer[layer] = by_layer.get(layer, 0) + 1
        ts = e.timestamp
        duration = e.duration
        total_duration += duration
        if e.nbytes is not None:
            payload += e.nbytes
        if ts < t_min:
            t_min = ts
        if ts + duration > t_max:
            t_max = ts + duration
    layers = {layer.value: n for layer, n in by_layer.items()}
    return SegmentMeta(
        rank=rank,
        sha256=sha256,
        n_events=len(events),
        t_min=t_min,
        t_max=t_max,
        total_duration=total_duration,
        payload_bytes=payload,
        encoded_bytes=encoded_bytes,
        ops=tuple(sorted(ops.items())),
        layers=tuple(sorted(layers.items())),
    )

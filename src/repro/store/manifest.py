"""Run manifests: the archive's versioned per-run index records.

One manifest describes one ingested run: its free-form metadata (framework,
access pattern, block size, nprocs, fault schedule...), the codec its
segments were encoded with, and one :class:`~repro.store.segments.SegmentMeta`
per ``(run, rank)`` segment.  The manifest files *are* the index — a run
id is looked up by its file name, queries parse ``manifests/*.json`` and
only touch segment files that survive predicate pushdown.

``run_id`` is itself content-derived: a SHA-256 over the canonical JSON of
the metadata plus the ordered ``(rank, sha256)`` segment list.  Ingesting
the same run twice therefore lands on the same manifest path and the same
segment set — the idempotence/dedup contract the acceptance tests pin down.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import StoreCorruptionError
from repro.obs.metrics import canonical_json
from repro.store.segments import SegmentMeta

__all__ = ["MANIFEST_SCHEMA", "RunManifest", "json_safe_meta", "compute_run_id"]

#: Versioned manifest schema tag; readers reject anything else.
MANIFEST_SCHEMA = "repro/store/manifest/v1"


def json_safe_meta(meta: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """Reduce free-form run metadata to plain, canonically ordered JSON.

    Enums keep their value, mappings get string keys and sorted order,
    sets become sorted lists, and anything else non-primitive falls back
    to ``str()`` — metadata must never make a manifest unserializable or
    its ``run_id`` order-dependent.
    """

    def conv(obj: Any) -> Any:
        if isinstance(obj, enum.Enum):
            return conv(obj.value)
        if isinstance(obj, Mapping):
            return {str(k): conv(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
        if isinstance(obj, (frozenset, set)):
            return sorted(str(v) for v in obj)
        if isinstance(obj, (list, tuple)):
            return [conv(v) for v in obj]
        if isinstance(obj, (str, int, float, bool)) or obj is None:
            return obj
        return str(obj)

    return conv(dict(meta or {}))


def compute_run_id(
    meta: Mapping[str, Any], segments: List[SegmentMeta], codec: Mapping[str, Any]
) -> str:
    """Content-derived run identity (SHA-256 hex).

    Depends only on the canonicalized metadata, the codec, and the ordered
    ``(rank, sha256)`` segment list — not on ingest time, host, or store
    location — so the same run archives to the same ``run_id`` everywhere.
    """
    material = {
        "schema": MANIFEST_SCHEMA,
        "meta": json_safe_meta(meta),
        "codec": dict(codec),
        "segments": [{"rank": s.rank, "sha256": s.sha256} for s in segments],
    }
    return hashlib.sha256(canonical_json(material).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """One run's index record (see module docstring).

    ``segments`` are ordered by ``(rank, sha256)``; ``n_events`` and
    ``n_barriers`` are whole-run totals the ``ls``/stats paths report
    without opening any segment.
    """

    run_id: str
    meta: Dict[str, Any] = field(default_factory=dict)
    codec: Dict[str, Any] = field(default_factory=dict)
    segments: Tuple[SegmentMeta, ...] = ()
    n_events: int = 0
    n_barriers: int = 0

    def to_json(self) -> Dict[str, Any]:
        """The manifest file's JSON body (canonical field content)."""
        return {
            "schema": MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "meta": json_safe_meta(self.meta),
            "codec": dict(self.codec),
            "segments": [s.to_json() for s in self.segments],
            "n_events": self.n_events,
            "n_barriers": self.n_barriers,
        }

    def dumps(self) -> str:
        """Canonical JSON text of :meth:`to_json` (byte-stable)."""
        return canonical_json(self.to_json()) + "\n"

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "RunManifest":
        """Parse a manifest body, validating schema and structure."""
        try:
            if obj["schema"] != MANIFEST_SCHEMA:
                raise StoreCorruptionError(
                    "unsupported manifest schema %r" % (obj["schema"],)
                )
            segments = tuple(SegmentMeta.from_json(s) for s in obj["segments"])
            return RunManifest(
                run_id=str(obj["run_id"]),
                meta=dict(obj.get("meta", {})),
                codec=dict(obj.get("codec", {})),
                segments=segments,
                n_events=int(obj["n_events"]),
                n_barriers=int(obj.get("n_barriers", 0)),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise StoreCorruptionError("malformed manifest: %s" % exc) from None

    @staticmethod
    def loads(text: str) -> "RunManifest":
        """Parse a manifest file's text."""
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise StoreCorruptionError("manifest is not JSON: %s" % exc) from None
        if not isinstance(obj, dict):
            raise StoreCorruptionError("manifest is not a JSON object")
        return RunManifest.from_json(obj)

    def segment_shas(self) -> List[str]:
        """Every segment digest referenced by this run (with duplicates)."""
        return [s.sha256 for s in self.segments]

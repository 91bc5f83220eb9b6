"""Trace replay fidelity measurement (§3.1 "Trace replay fidelity").

The paper gives two verification methods, both implemented:

* "compare the end-to-end run time of both using a utility such as the
  Linux command line time utility" — :func:`compare_end_to_end`;
* "use the I/O Tracing Framework to trace both the pseudo-application and
  the original application and compare the traces generated" —
  :func:`compare_traces`.

Beyond the paper's two scalars, the zoo's replay pipeline needs a
*per-op-class* account: a replay that writes the right bytes but drops
every stat/unlink is not faithful to a metadata storm.  Ops are split
into three classes — ``read``, ``write``, ``metadata`` (open/close/
fsync/stat/unlink/mkdir), the op table's
:data:`~repro.trace.events.KIND_CLASS` — and :func:`fidelity_report`
compares the compiled source schedule against the executed replay class
by class, with byte and count deltas that are exact integers (no ratios
that divide by zero on an empty source trace).  :func:`compare_traces`
classes each traced call through the same table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.trace.events import KIND_CLASS, OP_CLASSES, OP_KINDS, EventLayer
from repro.trace.records import TraceBundle

__all__ = [
    "FidelityResult",
    "compare_end_to_end",
    "compare_profiles",
    "compare_traces",
    "fidelity_report",
    "replay_profile",
    "schedule_profile",
]


@dataclass(frozen=True)
class FidelityResult:
    """Fidelity metrics; ``error_percent`` is the paper's headline number."""

    original_elapsed: float
    replay_elapsed: float

    @property
    def error(self) -> float:
        """|T_replay - T_original| / T_original, as a fraction."""
        if self.original_elapsed <= 0:
            return 0.0
        return abs(self.replay_elapsed - self.original_elapsed) / self.original_elapsed

    @property
    def error_percent(self) -> float:
        return 100.0 * self.error


def compare_end_to_end(original_elapsed: float, replay_elapsed: float) -> FidelityResult:
    """End-to-end run-time comparison (the ``time`` utility method)."""
    return FidelityResult(
        original_elapsed=original_elapsed, replay_elapsed=replay_elapsed
    )


#: The layers :func:`compare_traces` counts at (library calls duplicate
#: the transfers beneath them), and the op class of each call there.
#: Classes fold equivalent calls: a replayer legitimately substitutes
#: ``pwrite`` for ``seek+write``, and the I/O signature the paper cares
#: about is direction, offset and size, not the syscall spelling.
_TRACE_LAYERS = (EventLayer.SYSCALL, EventLayer.VFS)
_CALL_CLASS = {
    name: KIND_CLASS[kind]
    for layer in _TRACE_LAYERS
    for name, kind in OP_KINDS[layer].items()
}


def _empty_profile() -> Dict[str, Dict[str, int]]:
    return {cls: {"count": 0, "bytes": 0} for cls in OP_CLASSES}


def schedule_profile(app: Any) -> Dict[str, Any]:
    """Per-class op counts and issued bytes of a compiled pseudo-app.

    This is the *source side* of the fidelity comparison: what the trace
    says the application did, expressed in the replayer's own op
    vocabulary so both sides of the comparison count the same things.
    """
    classes = _empty_profile()
    kinds: Dict[str, int] = {}
    syncs = 0
    for script in app.scripts.values():
        for op in script.ops:
            if op.kind == "sync":
                syncs += 1
                continue
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
            cls = KIND_CLASS.get(op.kind)
            if cls is None:
                continue
            classes[cls]["count"] += 1
            if cls in ("read", "write"):
                classes[cls]["bytes"] += int(op.nbytes or 0)
    return {
        "classes": classes,
        "kinds": dict(sorted(kinds.items())),
        "syncs": syncs,
        "total_ops": sum(kinds.values()),
        "total_bytes": classes["read"]["bytes"] + classes["write"]["bytes"],
    }


def replay_profile(result: Any) -> Dict[str, Any]:
    """Per-class executed ops and issued bytes of a finished replay.

    ``result`` is a :class:`~repro.replay.replayer.ReplayResult`; the
    bytes here are *issued* (requested) sizes, matching what the source
    schedule scripted — transferred bytes ride along separately.
    """
    classes = _empty_profile()
    kinds = result.op_counts()
    syncs = kinds.pop("sync", 0)
    issued = result.issued_bytes()
    for kind, n in kinds.items():
        cls = KIND_CLASS.get(kind)
        if cls is not None:
            classes[cls]["count"] += n
    classes["read"]["bytes"] = issued["read"]
    classes["write"]["bytes"] = issued["write"]
    return {
        "classes": classes,
        "kinds": dict(sorted(kinds.items())),
        "syncs": syncs,
        "skipped": result.skipped_counts(),
        "total_ops": sum(kinds.values()),
        "total_bytes": issued["read"] + issued["write"],
        "transferred_bytes": {
            "read": sum(s.bytes_read for s in result.job.results),
            "write": sum(s.bytes_written for s in result.job.results),
        },
    }


def _ratio(a: int, b: int) -> float:
    """min/max agreement in [0, 1]; two empty sides agree perfectly."""
    if a == 0 and b == 0:
        return 1.0
    if min(a, b) <= 0:
        return 0.0
    return min(a, b) / max(a, b)


def compare_profiles(
    source: Dict[str, Any], replayed: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-class deltas between a source schedule and a replay.

    Deltas are integers (replay minus source) — exact, and safe for an
    empty source trace where any ratio would divide by zero; the
    ``*_similarity`` companions are min/max ratios with the two-empty
    case defined as 1.0.
    """
    per_class: Dict[str, Any] = {}
    for cls in OP_CLASSES:
        s = source["classes"][cls]
        r = replayed["classes"][cls]
        per_class[cls] = {
            "source_count": s["count"],
            "replay_count": r["count"],
            "count_delta": r["count"] - s["count"],
            "count_similarity": _ratio(s["count"], r["count"]),
            "source_bytes": s["bytes"],
            "replay_bytes": r["bytes"],
            "byte_delta": r["bytes"] - s["bytes"],
            "byte_similarity": _ratio(s["bytes"], r["bytes"]),
        }
    exact = all(
        per_class[cls]["count_delta"] == 0 and per_class[cls]["byte_delta"] == 0
        for cls in OP_CLASSES
    ) and not replayed.get("skipped")
    return {"per_class": per_class, "exact": exact}


def fidelity_report(
    app: Any,
    result: Any,
    source_label: str = "",
    original_elapsed: Optional[float] = None,
) -> Dict[str, Any]:
    """The full replay fidelity report: op mix, bytes, and timing.

    ``app`` is the compiled pseudo-application (the source schedule),
    ``result`` the :class:`~repro.replay.replayer.ReplayResult` of
    executing it.  ``original_elapsed``, when known (library traces know
    their span; strace traces their timestamp range), adds the paper's
    end-to-end timing comparison — meaningful under the ``preserve``
    timing policy, reported either way with the policy attached.

    The report is plain JSON data with no host clock anywhere, so it is
    byte-identical across reruns of the same replay.
    """
    source = schedule_profile(app)
    replayed = replay_profile(result)
    cmp = compare_profiles(source, replayed)
    unreplayable = dict(app.metadata.get("unreplayable", {}) or {})
    report: Dict[str, Any] = {
        "schema": "repro/replay/fidelity/v1",
        "source": {
            "label": source_label,
            "framework": app.source_framework,
            "layer": app.metadata.get("layer"),
            "nprocs": app.nprocs,
            "profile": source,
            "unreplayable": unreplayable,
        },
        "replay": {
            "timing": result.timing,
            "elapsed": result.elapsed,
            "bytes_replayed": result.bytes_replayed,
            "events_executed": result.events_executed,
            "profile": replayed,
        },
        "per_class": cmp["per_class"],
        # Exact means: every scheduled op executed, none skipped, issued
        # bytes match the schedule to the byte, and nothing the source
        # captured was dropped on the compile floor.
        "exact": bool(cmp["exact"] and not unreplayable),
    }
    if original_elapsed is not None:
        end_to_end = compare_end_to_end(original_elapsed, result.elapsed)
        report["end_to_end"] = {
            "original_elapsed": end_to_end.original_elapsed,
            "replay_elapsed": end_to_end.replay_elapsed,
            "error_percent": end_to_end.error_percent,
        }
    return report


def compare_traces(original: TraceBundle, replayed: TraceBundle) -> Dict[str, Any]:
    """Trace-vs-trace comparison: I/O signature similarity metrics.

    Compares the *data-bearing system/VFS call* footprint (library-level
    duplicates of the same transfer are excluded).  Returns per-metric
    agreement in [0, 1], plus a ``per_class`` breakdown of counts and
    bytes for the read/write/metadata split:

    * ``op_count_similarity`` — multiset overlap of normalized I/O ops;
    * ``byte_similarity`` — min/max ratio of payload bytes moved;
    * ``offset_coverage`` — overlap of the (offset, size) sets accessed.
    """
    def _io_events(bundle: TraceBundle):
        return [
            e
            for e in bundle.all_events()
            if e.nbytes is not None
            and e.layer in _TRACE_LAYERS
            and _CALL_CLASS.get(e.name) in ("read", "write")
        ]

    def _class_profile(bundle: TraceBundle) -> Dict[str, Dict[str, int]]:
        classes = _empty_profile()
        for e in bundle.all_events():
            if e.layer not in _TRACE_LAYERS:
                continue
            cls = _CALL_CLASS.get(e.name)
            if cls is None:
                continue
            if cls in ("read", "write") and e.nbytes is None:
                continue
            classes[cls]["count"] += 1
            if cls in ("read", "write"):
                classes[cls]["bytes"] += int(e.nbytes)
        return classes

    a, b = _io_events(original), _io_events(replayed)
    names_a = Counter(_CALL_CLASS[e.name] for e in a)
    names_b = Counter(_CALL_CLASS[e.name] for e in b)
    inter = sum((names_a & names_b).values())
    union = sum((names_a | names_b).values())
    op_count_similarity = inter / union if union else 1.0

    bytes_a = sum(e.nbytes for e in a)
    bytes_b = sum(e.nbytes for e in b)
    byte_similarity = _ratio(bytes_a, bytes_b)

    offs_a = {(e.offset, e.nbytes) for e in a if e.offset is not None}
    offs_b = {(e.offset, e.nbytes) for e in b if e.offset is not None}
    if not offs_a and not offs_b:
        offset_coverage = 1.0
    else:
        offset_coverage = len(offs_a & offs_b) / len(offs_a | offs_b)

    prof_a, prof_b = _class_profile(original), _class_profile(replayed)
    per_class = {
        cls: {
            "source_count": prof_a[cls]["count"],
            "replay_count": prof_b[cls]["count"],
            "count_delta": prof_b[cls]["count"] - prof_a[cls]["count"],
            "source_bytes": prof_a[cls]["bytes"],
            "replay_bytes": prof_b[cls]["bytes"],
            "byte_delta": prof_b[cls]["bytes"] - prof_a[cls]["bytes"],
        }
        for cls in OP_CLASSES
    }

    return {
        "op_count_similarity": op_count_similarity,
        "byte_similarity": byte_similarity,
        "offset_coverage": offset_coverage,
        "per_class": per_class,
    }

"""Cross-layer causal slicing: why was *this* part of the run slow?

The critical path (:mod:`repro.obs.critpath`) answers one question — which
rank bounded elapsed time.  A *slice* generalizes it: given any anchor —
a rank, an op name, a path glob, or "the straggler" (the default) — it
extracts the part of the run that explains the anchor's latency and
attributes it across the simulated stack (``des`` / ``simos`` /
``network`` / ``simfs`` / ``simmpi`` / ``framework``):

* the **anchor window** on one ``(node, rank)`` track;
* per-layer **self time** inside the window (anchor track and all
  tracks), per-op self time, and the window's share of elapsed time;
* the **bounding chain**: the time-ordered root spans covering the
  window, each extended down its dominant-descendant path, so one slice
  reads ``MPI_File_write_at -> SYS_write`` and crosses layers the way
  the capture did;
* **fault-plane candidates**: injected fault events (read back from a
  chaos run's archived schedule) whose windows overlap the slice —
  ranked first among suspects, because a fault that covers the window
  *is* the leading explanation;
* a ranked **suspect-layer** list combining self-time share with fault
  overlap.

Reports are canonical ``repro/obs/slice/v1`` JSON — a pure function of
the spans and track names (plus the optional fault/event context), so
byte-identical across ``jobs`` counts and cache temperature.  The core
(:func:`slice_spans`) takes spans; :func:`causal_slice` reads them from
a telemetry payload, and :func:`slice_from_store` from an archived run's
columns, with no payload built.  Renderings: text
(:func:`render_slice`), a Perfetto-loadable Chrome trace of just the
slice (:func:`slice_trace`), and collapsed-stack flamegraph lines
(:func:`slice_flamegraph_lines`), both read from a payload.
"""

from __future__ import annotations

import json
from fnmatch import fnmatchcase
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TelemetryError
from repro.obs.critpath import (
    SpanNode,
    build_forest,
    flamegraph_lines,
    payload_spans,
    span_rollup,
    stack_layer,
    straggler,
    track_names,
)
from repro.obs.metrics import canonical_json
from repro.obs.perfetto import _US

__all__ = [
    "SLICE_SCHEMA",
    "ANCHOR_KINDS",
    "FAULT_SUSPECT_LAYER",
    "MAX_CHAIN_ROOTS",
    "causal_slice",
    "slice_spans",
    "slice_from_store",
    "render_slice",
    "slice_trace",
    "slice_flamegraph_lines",
]

SLICE_SCHEMA = "repro/obs/slice/v1"

#: Anchor kinds ``causal_slice`` resolves.
ANCHOR_KINDS = ("straggler", "rank", "op", "path")

#: Which stack layer an injected fault event indicts.  Disk faults land
#: on the data path (``simfs``), fabric faults on ``network``, a node
#: crash on the OS layer that starts failing dispatches.
FAULT_SUSPECT_LAYER = {
    "DiskSlowdown": "simfs",
    "DiskErrorStorm": "simfs",
    "NetworkPartition": "network",
    "LinkDegradation": "network",
    "NodeCrash": "simos",
}

#: Chain roots kept before truncation (kept = widest, re-sorted by time).
MAX_CHAIN_ROOTS = 32


def _resolve_anchor(
    forest,
    ends: Dict[Tuple[int, int], float],
    kind: str,
    value: Any,
    events: Optional[List[Dict[str, Any]]],
) -> Tuple[Tuple[int, int], Tuple[float, float], Optional[Dict[str, Any]]]:
    """Resolve the anchor to ``(track, window, anchor_span)``."""
    if kind == "straggler":
        track = straggler(ends)
        t0 = min(r.ts for r in forest[track])
        return track, (t0, ends[track]), None
    if kind == "rank":
        rank = int(value)
        candidates = [t for t in forest if t[1] == rank]
        if not candidates:
            raise TelemetryError(
                "no track for rank %d (ranks present: %s)"
                % (rank, sorted({t[1] for t in forest}))
            )
        track = straggler({t: ends[t] for t in candidates})
        t0 = min(r.ts for r in forest[track])
        return track, (t0, ends[track]), None
    if kind == "op":
        name = str(value)
        best: Optional[Tuple[float, float, Tuple[int, int], SpanNode]] = None
        for track in sorted(forest):
            stack = list(reversed(forest[track]))
            while stack:
                node = stack.pop()
                stack.extend(reversed(node.children))
                if node.name != name:
                    continue
                key = (-node.dur, node.ts, track, node)
                if best is None or key[:3] < best[:3]:
                    best = key
        if best is None:
            raise TelemetryError("no span named %r in this run" % name)
        node = best[3]
        track = best[2]
        span = {
            "name": node.name,
            "cat": node.cat,
            "ts": node.ts,
            "dur": node.dur,
        }
        return track, (node.ts, node.end), span
    if kind == "path":
        glob = str(value)
        if events is None:
            raise TelemetryError(
                "path anchors need per-event paths — slice a store-archived "
                "run (file-based telemetry payloads carry no paths)"
            )
        per_rank: Dict[int, float] = {}
        t0, t1 = None, None
        for e in events:
            path = e.get("path")
            if path is None or not fnmatchcase(str(path), glob):
                continue
            ts = float(e["ts"])
            dur = float(e.get("dur") or 0.0)
            per_rank[e["rank"]] = per_rank.get(e["rank"], 0.0) + dur
            t0 = ts if t0 is None else min(t0, ts)
            t1 = ts + dur if t1 is None else max(t1, ts + dur)
        if t0 is None:
            raise TelemetryError("no events with a path matching %r" % glob)
        rank = straggler(per_rank)
        candidates = [t for t in forest if t[1] == rank]
        if not candidates:
            raise TelemetryError("path glob matched rank %d, which has no track" % rank)
        track = straggler({t: ends[t] for t in candidates})
        return track, (t0, t1), None
    raise TelemetryError(
        "unknown anchor kind %r (expected one of %s)" % (kind, ", ".join(ANCHOR_KINDS))
    )


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def _dominant_path(root: SpanNode, pid: int) -> List[Dict[str, Any]]:
    """The root plus its dominant-descendant chain, as report links."""
    links = []
    node, depth = root, 0
    while True:
        links.append(
            {
                "depth": depth,
                "name": node.name,
                "cat": node.cat,
                "layer": stack_layer(node.cat, node.name, pid),
                "ts": node.ts,
                "dur": node.dur,
                "self": node.self_time,
            }
        )
        if not node.children:
            return links
        node = max(node.children, key=lambda c: (c.dur, -c.ts, c.name))
        depth += 1


def _fault_candidates(
    fault_events: Optional[List[Dict[str, Any]]],
    origin: float,
    t0: float,
    t1: float,
) -> List[Dict[str, Any]]:
    """Injected faults whose windows overlap the slice window.

    Fault windows are relative to the run's simulated start; span stamps
    may carry a capture-epoch base, so they are shifted by ``origin``
    (the first span's start) before the overlap test.
    """
    out: List[Dict[str, Any]] = []
    for ev in fault_events or []:
        window = ev.get("window") or [ev.get("at", 0.0), None]
        f0 = origin + float(window[0])
        f1 = float("inf") if window[1] is None else origin + float(window[1])
        overlap = _overlap(t0, t1, f0, f1)
        if overlap <= 0.0:
            continue
        out.append(
            {
                "type": ev.get("type", "unknown"),
                "layer": FAULT_SUSPECT_LAYER.get(ev.get("type"), "framework"),
                "window": [window[0], window[1]],
                "overlap": overlap,
                "event": {
                    k: v for k, v in sorted(ev.items()) if k not in ("type", "window")
                },
            }
        )
    out.sort(key=lambda c: (-c["overlap"], c["type"]))
    return out


def _dfg_context(dfg: Optional[Dict[str, Any]], op: Optional[str], top: int = 8):
    """Directly-follows context around the slice's dominant op."""
    if dfg is None or op is None:
        return None
    graph = dfg.get("graph", {})
    edges = graph.get("edges", {})
    times = graph.get("edge_times", {})

    def cell(a: str, b: str, n: int) -> Dict[str, Any]:
        out: Dict[str, Any] = {"op": b if a == op else a, "count": n}
        t = times.get(a, {}).get(b)
        if t is not None:
            out["mean_gap"] = t["mean"]
        return out

    into = sorted(
        (
            (n, a)
            for a, row in edges.items()
            for b, n in row.items()
            if b == op
        ),
        key=lambda t: (-t[0], t[1]),
    )
    out_of = sorted(
        ((n, b) for b, n in edges.get(op, {}).items()), key=lambda t: (-t[0], t[1])
    )
    return {
        "op": op,
        "in": [cell(a, op, n) for n, a in into[:top]],
        "out": [cell(op, b, n) for n, b in out_of[:top]],
    }


def causal_slice(
    payload: Dict[str, Any],
    source: Optional[Dict[str, Any]] = None,
    **options: Any,
) -> Dict[str, Any]:
    """Extract the causal slice explaining the anchor's latency.

    ``payload`` is a ``repro/telemetry/v1`` payload, sliced as its spans
    and track names by :func:`slice_spans`, which takes ``options``;
    ``source`` defaults to the payload's own.
    """
    return slice_spans(
        payload_spans(payload),
        track_names(payload),
        source=source if source is not None else payload.get("source"),
        **options,
    )


def slice_spans(
    spans: List[Tuple[int, int, str, str, float, float]],
    labels: Dict[Tuple[int, int], str],
    anchor: str = "straggler",
    value: Any = None,
    fault_events: Optional[List[Dict[str, Any]]] = None,
    events: Optional[List[Dict[str, Any]]] = None,
    dfg: Optional[Dict[str, Any]] = None,
    max_roots: int = MAX_CHAIN_ROOTS,
    source: Optional[Dict[str, Any]] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The causal slice over ``(pid, tid, name, cat, ts, dur)`` spans
    (seconds, record order) and ``(pid, tid) -> label`` track names.

    ``anchor`` is one of :data:`ANCHOR_KINDS` with ``value`` its
    parameter (rank number, op name, path glob).  ``fault_events`` are
    plain-JSON fault descriptions
    (:meth:`~repro.faults.schedule.FaultSchedule.to_json` events);
    ``events`` per-event dicts with ``rank``/``ts``/``dur``/``path``
    (needed only for path anchors); ``dfg`` an optional
    ``repro/store/dfg/v1`` report for directly-follows context.  Returns
    the canonical ``repro/obs/slice/v1`` report.
    """
    if not spans:
        raise TelemetryError(
            "no spans in payload — was the run captured with --telemetry?"
        )
    forest = build_forest(spans)
    ends = {track: span_rollup(roots)["end"] for track, roots in forest.items()}
    origin = min(s[4] for s in spans)
    elapsed = max(ends.values()) - origin

    track, (t0, t1), anchor_span = _resolve_anchor(
        forest, ends, anchor, value, events
    )
    pid, tid = track

    in_window = {
        other: span_rollup(roots, other[0], (t0, t1))
        for other, roots in forest.items()
    }
    layers_track = in_window[track]["layers"]
    ops = in_window[track]["names"]
    layers_all: Dict[str, float] = {}
    for got in in_window.values():
        for layer, v in got["layers"].items():
            layers_all[layer] = layers_all.get(layer, 0.0) + v

    # Bounding chain: window roots in time order, each extended down its
    # dominant-descendant path.  Truncation keeps the widest roots but
    # re-sorts them back into time order.
    roots = [r for r in forest[track] if r.end > t0 and r.ts < t1]
    dropped = 0
    if len(roots) > max_roots:
        keep = sorted(roots, key=lambda r: (-r.dur, r.ts, r.name))[:max_roots]
        dropped = len(roots) - max_roots
        roots = sorted(keep, key=lambda r: (r.ts, -r.dur, r.name))
    chain: List[Dict[str, Any]] = []
    covered = 0.0
    for root in roots:
        chain.extend(_dominant_path(root, pid))
        covered += _overlap(root.ts, root.end, t0, t1)
    width = max(t1 - t0, 1e-12)
    layers_crossed = sorted({link["layer"] for link in chain})

    candidates = _fault_candidates(fault_events, origin, t0, t1)

    # Suspect ranking: self-time share inside the window, plus a unit
    # boost per layer an overlapping fault indicts — an injected fault
    # that covers the window outranks any share-only explanation.
    total_self = sum(layers_track.values()) or 1.0
    fault_layers = {c["layer"] for c in candidates}
    suspects = []
    for layer in sorted(set(layers_track) | fault_layers):
        share = layers_track.get(layer, 0.0) / total_self
        boosted = layer in fault_layers
        suspects.append(
            {
                "layer": layer,
                "share": share,
                "fault_overlap": boosted,
                "score": share + (1.0 if boosted else 0.0),
            }
        )
    suspects.sort(key=lambda s: (-s["score"], s["layer"]))

    focus_op = None
    if anchor == "op":
        focus_op = str(value)
    elif ops:
        focus_op = straggler({n: cell["self"] for n, cell in ops.items()})

    report = {
        "schema": SLICE_SCHEMA,
        "anchor": {"kind": anchor, "value": value},
        "source": source,
        "meta": meta,
        "origin": origin,
        "elapsed": elapsed,
        "track": {
            "node": pid,
            "rank": tid,
            "label": labels.get(track, "node%d rank %d" % (pid, tid)),
            "end": ends[track],
        },
        "window": [t0, t1],
        "window_rel": [t0 - origin, t1 - origin],
        "anchor_span": anchor_span,
        "layers": {
            "track": {k: v for k, v in sorted(layers_track.items())},
            "all": {k: v for k, v in sorted(layers_all.items())},
        },
        "ops": {k: ops[k] for k in sorted(ops)},
        "chain": chain,
        "chain_roots": len(roots),
        "roots_dropped": dropped,
        "chain_coverage": min(1.0, covered / width),
        "layers_crossed": layers_crossed,
        "fault_candidates": candidates,
        "dfg_context": _dfg_context(dfg, focus_op),
        "suspects": suspects,
        "n_spans": len(spans),
    }
    return json.loads(canonical_json(report))


def slice_from_store(
    bank,
    run_prefix: str,
    anchor: str = "straggler",
    value: Any = None,
    max_roots: int = MAX_CHAIN_ROOTS,
    with_payload: bool = False,
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Slice a store-archived run: resolve the prefix, read the run's
    spans, and thread in everything only the archive knows — the
    injected fault schedule from the manifest, per-event paths for path
    anchors, and the run's directly-follows graph.

    Returns ``(report, payload)``.  Each segment is read once, as the
    columns the slice needs (:func:`~repro.store.query.run_columns`):
    the spans (:func:`~repro.store.query.column_spans`), the path events
    and the DFG (merged in :func:`~repro.store.dfg.build_dfg`'s ``(rank,
    sha)`` shard order) all come from that read.  The run's telemetry
    payload, which the renderings of the slice (:func:`slice_trace`,
    :func:`slice_flamegraph_lines`) read, is built from the same columns
    only ``with_payload``; otherwise ``payload`` is ``None``.
    """
    from repro.store.dfg import merge_shard_graphs, shard_graph
    from repro.store.query import (
        SPAN_FIELDS,
        column_spans,
        events_telemetry,
        run_columns,
    )

    manifest = bank.manifest(run_prefix)
    fields = SPAN_FIELDS
    if anchor == "path":
        fields += ("path",)
    if with_payload:
        fields += ("nbytes",)
    segments = run_columns(bank, manifest, fields)
    shards = [
        ((rank, sha), shard_graph(list(zip(
            cols["name"], cols["timestamp"], cols["duration"]))))
        for rank, sha, cols in segments
    ]
    shards.sort(key=lambda shard: shard[0])
    graph, _matched = merge_shard_graphs(partial for _key, partial in shards)
    fault_events = None
    faults = manifest.meta.get("faults")
    if isinstance(faults, dict):
        fault_events = faults.get("events")
    events = None
    if anchor == "path":
        events = [
            {"rank": rank, "ts": ts, "dur": dur or 0.0, "path": path}
            for rank, _sha, cols in segments
            for ts, dur, path in zip(cols["timestamp"], cols["duration"], cols["path"])
        ]
    meta_keys = ("kind", "scenario", "status", "framework", "workload", "nprocs", "seed")
    meta = {k: manifest.meta[k] for k in meta_keys if k in manifest.meta}
    spans, labels = column_spans(segments)
    report = slice_spans(
        spans,
        labels,
        anchor=anchor,
        value=value,
        fault_events=fault_events,
        events=events,
        dfg={"graph": graph},
        max_roots=max_roots,
        source={"kind": "store", "run_id": manifest.run_id},
        meta=meta,
    )
    payload = events_telemetry(manifest.run_id, segments) if with_payload else None
    return report, payload


def slice_trace(payload: Dict[str, Any], report: Dict[str, Any]) -> Dict[str, Any]:
    """A Perfetto-loadable Chrome trace containing just the slice.

    Keeps every metadata (``M``) event so track names survive, and the
    complete (``X``) spans on the anchor track that overlap the slice
    window.  Loading it next to the full trace shows exactly what the
    slice attributed.
    """
    pid, tid = report["track"]["node"], report["track"]["rank"]
    t0, t1 = report["window"]
    events = []
    for e in payload.get("trace", {}).get("traceEvents", []):
        if e.get("ph") == "M":
            events.append(e)
            continue
        if e.get("ph") != "X" or int(e["pid"]) != pid or int(e["tid"]) != tid:
            continue
        ts = float(e["ts"]) / _US
        end = ts + float(e["dur"]) / _US
        if end > t0 and ts < t1:
            events.append(e)
    trace = {"traceEvents": events, "displayTimeUnit": "ms"}
    return json.loads(canonical_json(trace))


def slice_flamegraph_lines(
    payload: Dict[str, Any], report: Dict[str, Any]
) -> List[str]:
    """Collapsed-stack flamegraph lines for the slice only."""
    sliced = {
        "schema": "repro/telemetry/v1",
        "trace": slice_trace(payload, report),
    }
    return flamegraph_lines(sliced)


def render_slice(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`causal_slice` report."""
    anchor = report["anchor"]
    label = anchor["kind"] if anchor["value"] is None else (
        "%s=%s" % (anchor["kind"], anchor["value"])
    )
    t0, t1 = report["window_rel"]
    lines: List[str] = []
    title = "causal slice [%s] on %s: window %.6f..%.6f s (%.1f%% of elapsed)" % (
        label,
        report["track"]["label"],
        t0,
        t1,
        100.0 * (t1 - t0) / max(report["elapsed"], 1e-12),
    )
    lines.append(title)
    lines.append("=" * len(title))
    if report["meta"]:
        meta = report["meta"]
        parts = ["%s=%s" % (k, meta[k]) for k in sorted(meta)]
        lines.append("run: " + ", ".join(parts))
    track_layers = report["layers"]["track"]
    if track_layers:
        lines.append("self time in window (anchor track):")
        total = sum(track_layers.values()) or 1.0
        for layer, v in sorted(track_layers.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(
                "  %-10s %12.6f s  (%5.1f%%)" % (layer, v, 100.0 * v / total)
            )
    if report["fault_candidates"]:
        lines.append("fault-plane candidates overlapping the window:")
        for c in report["fault_candidates"]:
            lines.append(
                "  %-18s -> %-8s overlap %.6f s" % (c["type"], c["layer"], c["overlap"])
            )
    if report["chain"]:
        lines.append(
            "bounding chain (%d root(s)%s, %.1f%% coverage, layers: %s):"
            % (
                report["chain_roots"],
                ", %d dropped" % report["roots_dropped"]
                if report["roots_dropped"]
                else "",
                100.0 * report["chain_coverage"],
                " -> ".join(report["layers_crossed"]),
            )
        )
        for link in report["chain"]:
            lines.append(
                "  %s%-26s %-8s dur=%.6f self=%.6f"
                % (
                    "  " * link["depth"],
                    link["name"],
                    link["layer"],
                    link["dur"],
                    link["self"],
                )
            )
    lines.append("suspects (ranked):")
    for i, s in enumerate(report["suspects"], start=1):
        note = " [fault overlap]" if s["fault_overlap"] else ""
        lines.append(
            "  %d. %-10s score %.3f (self share %5.1f%%)%s"
            % (i, s["layer"], s["score"], 100.0 * s["share"], note)
        )
    return "\n".join(lines) + "\n"

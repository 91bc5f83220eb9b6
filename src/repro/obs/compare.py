"""Cross-run telemetry diffing: what got slower, and where in the stack.

The paper's taxonomy is entirely comparative — Figures 2–4 only mean
something as deltas between traced and untraced runs — and so is this
module.  :func:`compare_payloads` takes two ``repro/telemetry/v1``
payloads (live exports, telemetry files, or views synthesized from the
TraceBank by :func:`repro.store.query.telemetry_view`) and emits one
canonical JSON report covering:

* **metrics** — counter-by-counter deltas plus log2-histogram
  divergence (half the L1 distance between the normalized bucket
  distributions: 0.0 for identical shapes, 1.0 for disjoint ones);
* **spans** — span-tree alignment keyed by ``(node, rank, name)``
  with per-key count/total/self-time deltas, per-layer self-time
  deltas over the ``des``/``simos``/``network``/``simfs``/``simmpi``/
  ``framework`` stack, and the *dominant layer* — the single largest
  self-time mover, the diff's headline;
* **tracks** — ranks present in only one run (crashed-rank captures
  from the fault plane diff cleanly; missing ranks are reported, never
  raised);
* **tracepoints** — count drift in which instrumentation fired.

Reports round-trip through :func:`~repro.obs.metrics.canonical_json`,
so diffing two byte-identical payloads yields a byte-identical (and
all-zero) report regardless of worker count or cache temperature.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TelemetryError
from repro.obs.metrics import canonical_json
from repro.obs.critpath import (
    STACK_LAYERS,
    build_forest,
    payload_spans,
    span_rollup,
    track_names,
)

__all__ = [
    "DIFF_SCHEMA",
    "compare_payloads",
    "render_diff",
]

DIFF_SCHEMA = "repro/obs/diff/v1"


def _counters(payload: Dict[str, Any]) -> Dict[str, float]:
    return dict(payload.get("metrics", {}).get("counters", {}))


def _histograms(payload: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return dict(payload.get("metrics", {}).get("histograms", {}))


def _hist_divergence(a: Optional[Dict[str, Any]], b: Optional[Dict[str, Any]]) -> float:
    """Half the L1 distance between two normalized bucket distributions.

    0.0 when the shapes match exactly, 1.0 when no mass overlaps.  A
    missing histogram counts as disjoint from a non-empty one.  Sums in
    sorted bucket order, so the last digit never follows the hash seed.
    """
    buckets_a = dict((a or {}).get("buckets", {}))
    buckets_b = dict((b or {}).get("buckets", {}))
    total_a = float(sum(buckets_a.values()))
    total_b = float(sum(buckets_b.values()))
    if total_a == 0.0 and total_b == 0.0:
        return 0.0
    if total_a == 0.0 or total_b == 0.0:
        return 1.0
    l1 = 0.0
    for key in sorted(set(buckets_a) | set(buckets_b)):
        l1 += abs(buckets_a.get(key, 0) / total_a - buckets_b.get(key, 0) / total_b)
    return 0.5 * l1


def _span_index(
    payload: Dict[str, Any],
) -> Tuple[
    int,
    Dict[Tuple[int, int, str], Dict[str, float]],
    Dict[Tuple[int, int], Dict[str, Any]],
]:
    """Span count, span stats keyed ``(node, rank, name)``, and the
    per-track rollups, from one forest of the payload."""
    spans = payload_spans(payload)  # validates schema
    stats = {
        track: span_rollup(roots, track[0])
        for track, roots in build_forest(spans).items()
    }
    keyed: Dict[Tuple[int, int, str], Dict[str, float]] = {}
    for (pid, tid), s in stats.items():
        for name, cell in s["names"].items():
            keyed[(pid, tid, name)] = cell
    return len(spans), keyed, stats


def compare_payloads(
    payload_a: Dict[str, Any],
    payload_b: Dict[str, Any],
    label_a: str = "a",
    label_b: str = "b",
) -> Dict[str, Any]:
    """Structured diff of two telemetry payloads (B relative to A).

    Raises :class:`~repro.errors.TelemetryError` when either input is
    not a ``repro/telemetry/v1`` payload.  Unequal rank counts are a
    *reported* condition (``tracks.only_a`` / ``tracks.only_b``), not an
    error — fault-plane captures with crashed ranks diff cleanly.
    """
    n_spans_a, keyed_a, stats_a = _span_index(payload_a)
    n_spans_b, keyed_b, stats_b = _span_index(payload_b)

    # --- metrics: counters -------------------------------------------------
    counters_a = _counters(payload_a)
    counters_b = _counters(payload_b)
    counter_rows = []
    for name in sorted(set(counters_a) | set(counters_b)):
        va = counters_a.get(name, 0.0)
        vb = counters_b.get(name, 0.0)
        if va == vb:
            continue
        counter_rows.append(
            {
                "name": name,
                "a": va,
                "b": vb,
                "delta": vb - va,
                "ratio": (vb / va) if va else None,
            }
        )

    # --- metrics: histogram shape divergence -------------------------------
    hists_a = _histograms(payload_a)
    hists_b = _histograms(payload_b)
    hist_rows = []
    for name in sorted(set(hists_a) | set(hists_b)):
        ha = hists_a.get(name)
        hb = hists_b.get(name)
        div = _hist_divergence(ha, hb)
        count_a = (ha or {}).get("count", 0)
        count_b = (hb or {}).get("count", 0)
        if div == 0.0 and count_a == count_b:
            continue
        hist_rows.append(
            {
                "name": name,
                "divergence": div,
                "count_a": count_a,
                "count_b": count_b,
                "sum_a": (ha or {}).get("sum", 0.0),
                "sum_b": (hb or {}).get("sum", 0.0),
            }
        )

    # --- spans: (node, rank, name) alignment -------------------------------
    span_rows = []
    for key in sorted(set(keyed_a) | set(keyed_b)):
        pid, tid, name = key
        ca = keyed_a.get(key, {"count": 0, "total": 0.0, "self": 0.0})
        cb = keyed_b.get(key, {"count": 0, "total": 0.0, "self": 0.0})
        if ca == cb:
            continue
        span_rows.append(
            {
                "node": pid,
                "rank": tid,
                "name": name,
                "count_a": ca["count"],
                "count_b": cb["count"],
                "total_delta": cb["total"] - ca["total"],
                "self_delta": cb["self"] - ca["self"],
            }
        )

    # --- spans: per-layer self-time deltas ---------------------------------
    layers_a: Dict[str, float] = {}
    layers_b: Dict[str, float] = {}
    for s in stats_a.values():
        for layer, t in s["layers"].items():
            layers_a[layer] = layers_a.get(layer, 0.0) + t
    for s in stats_b.values():
        for layer, t in s["layers"].items():
            layers_b[layer] = layers_b.get(layer, 0.0) + t
    layer_rows = []
    for layer in STACK_LAYERS:
        ta = layers_a.get(layer, 0.0)
        tb = layers_b.get(layer, 0.0)
        if ta == 0.0 and tb == 0.0:
            continue
        layer_rows.append({"layer": layer, "a": ta, "b": tb, "delta": tb - ta})
    dominant = None
    if layer_rows:
        # Largest absolute mover; ties break by layer order for determinism.
        order = {layer: i for i, layer in enumerate(STACK_LAYERS)}
        top = min(layer_rows, key=lambda r: (-abs(r["delta"]), order[r["layer"]]))
        if top["delta"] != 0.0:
            dominant = {"layer": top["layer"], "delta": top["delta"]}

    # --- tracks: ranks present in only one run -----------------------------
    names_a = track_names(payload_a)
    names_b = track_names(payload_b)
    tracks_a = set(stats_a) | set(names_a)
    tracks_b = set(stats_b) | set(names_b)

    def _track_row(track: Tuple[int, int], names: Dict) -> Dict[str, Any]:
        pid, tid = track
        return {
            "node": pid,
            "rank": tid,
            "track": names.get(track, "node%d rank %d" % (pid, tid)),
        }

    only_a = [_track_row(t, names_a) for t in sorted(tracks_a - tracks_b)]
    only_b = [_track_row(t, names_b) for t in sorted(tracks_b - tracks_a)]

    # --- tracepoint drift: which instrumentation fired ---------------------
    fired_a = {n for n, v in counters_a.items() if v}
    fired_b = {n for n, v in counters_b.items() if v}
    tracepoints = {
        "only_a": sorted(fired_a - fired_b),
        "only_b": sorted(fired_b - fired_a),
    }

    end_a = float(payload_a.get("metrics", {}).get("end_time", 0.0))
    end_b = float(payload_b.get("metrics", {}).get("end_time", 0.0))
    report = {
        "schema": DIFF_SCHEMA,
        "a": {
            "label": label_a,
            "end_time": end_a,
            "n_spans": n_spans_a,
            "n_tracks": len(tracks_a),
        },
        "b": {
            "label": label_b,
            "end_time": end_b,
            "n_spans": n_spans_b,
            "n_tracks": len(tracks_b),
        },
        "end_time_delta": end_b - end_a,
        "counters": counter_rows,
        "histograms": hist_rows,
        "spans": span_rows,
        "layers": layer_rows,
        "dominant_layer": dominant,
        "tracks": {"only_a": only_a, "only_b": only_b},
        "tracepoints": tracepoints,
    }
    return json.loads(canonical_json(report))


def _fmt_seconds(value: float) -> str:
    return "%+.6f s" % value


def render_diff(report: Dict[str, Any], markdown: bool = False, limit: int = 20) -> str:
    """Text or Markdown rendering of a :func:`compare_payloads` report.

    ``limit`` caps the per-section row count in the rendering (the JSON
    report always carries everything); truncation is announced.
    """
    a = report["a"]
    b = report["b"]
    lines: List[str] = []

    def heading(text: str) -> None:
        if markdown:
            lines.append("## %s" % text)
        else:
            lines.append(text)
            lines.append("-" * len(text))

    title = "telemetry diff: %s -> %s" % (a["label"], b["label"])
    if markdown:
        lines.append("# %s" % title)
    else:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(
        "elapsed: %.6f s -> %.6f s (%s)"
        % (a["end_time"], b["end_time"], _fmt_seconds(report["end_time_delta"]))
    )
    lines.append(
        "spans: %d -> %d; tracks: %d -> %d"
        % (a["n_spans"], b["n_spans"], a["n_tracks"], b["n_tracks"])
    )
    lines.append("")

    heading("self time by layer")
    if report["layers"]:
        if markdown:
            lines.append("| layer | %s | %s | delta |" % (a["label"], b["label"]))
            lines.append("|---|---|---|---|")
            for row in report["layers"]:
                lines.append(
                    "| %s | %.6f | %.6f | %+.6f |"
                    % (row["layer"], row["a"], row["b"], row["delta"])
                )
        else:
            for row in report["layers"]:
                lines.append(
                    "  %-12s %12.6f -> %12.6f  (%s)"
                    % (row["layer"], row["a"], row["b"], _fmt_seconds(row["delta"]))
                )
        dom = report["dominant_layer"]
        if dom is not None:
            lines.append(
                "dominant self-time delta: %s (%s)"
                % (dom["layer"], _fmt_seconds(dom["delta"]))
            )
    else:
        lines.append("  (no span self time in either run)")
    lines.append("")

    heading("span deltas by (node, rank, name)")
    rows = report["spans"]
    if rows:
        shown = sorted(rows, key=lambda r: (-abs(r["self_delta"]), r["node"],
                                            r["rank"], r["name"]))[:limit]
        if markdown:
            lines.append("| node | rank | name | count | self delta | total delta |")
            lines.append("|---|---|---|---|---|---|")
            for row in shown:
                lines.append(
                    "| %d | %d | %s | %d -> %d | %+.6f | %+.6f |"
                    % (row["node"], row["rank"], row["name"], row["count_a"],
                       row["count_b"], row["self_delta"], row["total_delta"])
                )
        else:
            for row in shown:
                lines.append(
                    "  node%-3d rank%-3d %-28s count %4d -> %-4d self %s"
                    % (row["node"], row["rank"], row["name"], row["count_a"],
                       row["count_b"], _fmt_seconds(row["self_delta"]))
                )
        if len(rows) > limit:
            lines.append("  ... %d more rows in the JSON report" % (len(rows) - limit))
    else:
        lines.append("  (no span-level differences)")
    lines.append("")

    heading("counter deltas")
    rows = report["counters"]
    if rows:
        shown = sorted(rows, key=lambda r: (-abs(r["delta"]), r["name"]))[:limit]
        for row in shown:
            lines.append(
                "  %-40s %14g -> %-14g (%+g)"
                % (row["name"], row["a"], row["b"], row["delta"])
            )
        if len(rows) > limit:
            lines.append("  ... %d more rows in the JSON report" % (len(rows) - limit))
    else:
        lines.append("  (no counter differences)")
    lines.append("")

    heading("histogram divergence")
    rows = report["histograms"]
    if rows:
        shown = sorted(rows, key=lambda r: (-r["divergence"], r["name"]))[:limit]
        for row in shown:
            lines.append(
                "  %-40s divergence %.4f  count %d -> %d"
                % (row["name"], row["divergence"], row["count_a"], row["count_b"])
            )
        if len(rows) > limit:
            lines.append("  ... %d more rows in the JSON report" % (len(rows) - limit))
    else:
        lines.append("  (no histogram differences)")

    only_a = report["tracks"]["only_a"]
    only_b = report["tracks"]["only_b"]
    if only_a or only_b:
        lines.append("")
        heading("track drift")
        for row in only_a:
            lines.append("  only in %s: %s" % (a["label"], row["track"]))
        for row in only_b:
            lines.append("  only in %s: %s" % (b["label"], row["track"]))

    tp = report["tracepoints"]
    if tp["only_a"] or tp["only_b"]:
        lines.append("")
        heading("tracepoint drift")
        for name in tp["only_a"]:
            lines.append("  fired only in %s: %s" % (a["label"], name))
        for name in tp["only_b"]:
            lines.append("  fired only in %s: %s" % (b["label"], name))

    return "\n".join(lines) + "\n"

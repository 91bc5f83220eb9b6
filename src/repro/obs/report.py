"""Text summary of an exported telemetry payload.

Consumes the ``repro/telemetry/v1`` dict that
:meth:`~repro.obs.tracepoints.TelemetryCollector.export` produces (or that
``repro figure --telemetry`` writes to disk) and renders the observability
report a human wants first: event counts, call mix, I/O volume, resource
utilizations, and the span/track shape of the Perfetto trace.  Powers the
``repro observe`` CLI command.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import TelemetryError
from repro.obs.metrics import quantile_from_snapshot, time_weighted_mean

__all__ = ["summarize_payload", "render_payload_summary"]

#: Counter prefixes rolled up into the "call mix" section.
_MIX_PREFIXES = ("os.calls.", "mpi.collective.", "net.", "disk.", "pfs.", "fscache.")


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024 or unit == "TiB":
            return "%.1f %s" % (n, unit) if unit != "B" else "%d B" % n
        n /= 1024.0
    return "%d B" % n  # pragma: no cover - loop always returns


def summarize_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Reduce one telemetry payload to headline numbers (plain dict).

    Raises :class:`~repro.errors.TelemetryError` if ``payload`` is not a
    ``repro/telemetry/v1`` export.
    """
    if not isinstance(payload, dict) or payload.get("schema") != "repro/telemetry/v1":
        raise TelemetryError(
            "not a repro/telemetry/v1 payload (schema=%r)"
            % (payload.get("schema") if isinstance(payload, dict) else type(payload))
        )
    metrics = payload.get("metrics", {})
    counters: Dict[str, int] = metrics.get("counters", {})
    histograms: Dict[str, Any] = metrics.get("histograms", {})
    timelines: Dict[str, Any] = metrics.get("timelines", {})
    end_time = float(metrics.get("end_time", 0.0))
    trace = payload.get("trace", {})
    events = trace.get("traceEvents", [])
    spans = [e for e in events if e.get("ph") == "X"]
    tracks = {(e.get("pid"), e.get("tid")) for e in spans}
    return {
        "end_time": end_time,
        "events_dispatched": counters.get("des.events_dispatched", 0),
        "counters": counters,
        "histograms": histograms,
        "utilizations": {
            name: time_weighted_mean(tl.get("samples") or [], end_time) for name, tl in sorted(timelines.items())
        },
        "n_spans": len(spans),
        "n_counter_samples": sum(1 for e in events if e.get("ph") == "C"),
        "n_tracks": len(tracks),
    }


def render_payload_summary(payload: Dict[str, Any], label: str = "") -> str:
    """Human-readable report of one telemetry payload."""
    s = summarize_payload(payload)
    lines: List[str] = []
    title = "telemetry%s" % ((" [%s]" % label) if label else "")
    lines.append(title)
    lines.append("=" * len(title))
    lines.append(
        "sim time %.6f s, %d kernel events, %d spans on %d tracks, %d counter samples"
        % (
            s["end_time"],
            s["events_dispatched"],
            s["n_spans"],
            s["n_tracks"],
            s["n_counter_samples"],
        )
    )
    if s["n_spans"] == 0:
        # An empty span table is almost always a capture-config problem,
        # not an empty run — say so instead of printing nothing.
        lines.append(
            "no spans recorded — telemetry captured without spans? "
            "(TelemetryConfig(spans=True) is the default; sweeps record "
            "them under --telemetry)"
        )
    mix = {
        k: v
        for k, v in s["counters"].items()
        if k.startswith(_MIX_PREFIXES) and not k.endswith(".bytes")
    }
    if mix:
        lines.append("call/op mix:")
        for name, count in sorted(mix.items(), key=lambda kv: (-kv[1], kv[0]))[:20]:
            lines.append("  %-42s %12d" % (name, count))
    byte_counters = {k: v for k, v in s["counters"].items() if k.endswith(".bytes")}
    if byte_counters:
        lines.append("bytes moved:")
        for name, n in sorted(byte_counters.items()):
            lines.append("  %-42s %12s" % (name, _fmt_bytes(n)))
    if s["histograms"]:
        lines.append("distributions (log2 buckets):")
        for name, h in sorted(s["histograms"].items()):
            count = h.get("count", 0)
            mean = (h.get("sum", 0.0) / count) if count else 0.0
            lines.append(
                "  %-42s n=%-8d mean=%.3g  p50=%.3g  p99=%.3g  buckets=%d"
                % (
                    name, count, mean,
                    quantile_from_snapshot(h, 0.50),
                    quantile_from_snapshot(h, 0.99),
                    len(h.get("buckets", {})),
                )
            )
    if s["utilizations"]:
        lines.append("mean utilization (time-weighted):")
        for name, u in s["utilizations"].items():
            lines.append("  %-42s %8.3f" % (name, u))
    return "\n".join(lines) + "\n"

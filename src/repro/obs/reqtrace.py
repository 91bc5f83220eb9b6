"""End-to-end request tracing for the TraceBank service.

The simulator's telemetry (:mod:`repro.obs.spans`) observes *simulated*
time; the service (PR 8) runs on the wall clock and, until now, was the
least-observed layer in the repo — a slow ingest crossed client → HTTP
front end → WAL append → commit worker → TraceBank with no causal
trail.  This module closes that loop ReLayTracer-style:

* **Trace context** — a ``traceparent``-style header
  (``00-<trace_id:32hex>-<span_id:16hex>-<flags>``) carried on every
  request.  The loadgen derives its ids deterministically from the load
  plan (:func:`make_context` over ``(seed, client, op)``), so a bench
  run's ids are reproducible and client-side spans join server-side
  spans by id alone.
* **Request spans** — every hop records a wall-clock span on one of the
  five component tracks (:data:`TRACKS`): the synthesized ``client``
  envelope, the ``http`` front end, the ``wal`` append + queue wait, the
  ``commit`` worker, and the ``bank`` ingest.  Parent links are explicit
  span ids, not interval containment — commit spans land *after* the
  202 response was written.
* **Span ring + tail exemplars** — finished traces live in a bounded
  in-memory ring (:class:`RequestTraceLog`); the N slowest per route are
  retained past eviction, which is what ``GET /v1/traces/slowest`` and
  ``repro obs reqtrace`` serve.
* **Export** — :func:`trace_to_chrome` renders one trace through the
  existing :mod:`repro.obs.perfetto` machinery (validated Chrome
  trace-event JSON, one Perfetto process row per component track);
  :func:`trace_flamegraph_lines` emits the same collapsed-stack format
  as :func:`repro.obs.critpath.flamegraph_lines`, through the same
  writer (:func:`~repro.obs.critpath.collapsed_stacks`) over critpath
  :class:`~repro.obs.critpath.SpanNode` trees.

Timestamps are microseconds of server uptime (monotonic); ids are the
only thing two runs share, which is exactly the join the taxonomy's
cross-layer causality feature asks for.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.critpath import SpanNode, collapsed_stacks
from repro.obs.metrics import quantile_from_snapshot
from repro.obs.perfetto import to_chrome_trace
from repro.obs.spans import SpanRecorder

__all__ = [
    "REQTRACE_SCHEMA",
    "TRACKS",
    "TraceContext",
    "RequestTrace",
    "RequestTraceLog",
    "make_context",
    "child_span_id",
    "parse_traceparent",
    "trace_to_chrome",
    "trace_flamegraph_lines",
    "render_trace",
    "render_top",
]

REQTRACE_SCHEMA = "repro/obs/reqtrace/v1"

#: Component tracks a request crosses, in export (pid) order.
TRACKS: Tuple[str, ...] = ("client", "http", "wal", "commit", "bank")

_TRACK_PID = {name: i for i, name in enumerate(TRACKS)}


class TraceContext:
    """One ``traceparent`` triple: trace id, span id, flags."""

    __slots__ = ("trace_id", "span_id", "flags")

    def __init__(self, trace_id: str, span_id: str, flags: str = "01"):
        self.trace_id = trace_id
        self.span_id = span_id
        self.flags = flags

    def header(self) -> str:
        """The wire form: ``00-<trace_id>-<span_id>-<flags>``."""
        return "00-%s-%s-%s" % (self.trace_id, self.span_id, self.flags)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TraceContext(%s)" % self.header()


def make_context(*parts: Any) -> TraceContext:
    """A deterministic trace context derived from ``parts``.

    The loadgen calls this with ``("repro-loadgen", seed, client, op)``
    so the same plan always deals the same trace ids; the server calls
    it with a per-process nonce for requests that arrive without a
    ``traceparent`` header.
    """
    digest = hashlib.sha256(
        ":".join(str(p) for p in parts).encode("utf-8")
    ).hexdigest()
    return TraceContext(trace_id=digest[:32], span_id=digest[32:48])


def child_span_id(trace_id: str, name: str, seq: int = 0) -> str:
    """A deterministic 16-hex child span id unique per (trace, name, seq)."""
    return hashlib.sha256(
        ("%s:%s:%d" % (trace_id, name, seq)).encode("utf-8")
    ).hexdigest()[:16]


def parse_traceparent(value: Optional[str]) -> Optional[TraceContext]:
    """Parse a ``traceparent`` header; ``None`` for absent/malformed ones.

    A malformed header must not fail the request — the trail simply
    starts server-side, exactly as if the client sent nothing.
    """
    if not value:
        return None
    parts = value.strip().lower().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16:
        return None
    try:
        int(trace_id, 16), int(span_id, 16), int(version, 16), int(flags, 16)
    except ValueError:
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id, flags=flags or "01")


class RequestTrace:
    """One request's accumulating span chain (mutable until exported)."""

    __slots__ = (
        "trace_id", "client_span_id", "route", "tenant", "status",
        "wall_us", "queue_depth", "spans", "_seq",
    )

    def __init__(self, trace_id: str, client_span_id: str):
        self.trace_id = trace_id
        self.client_span_id = client_span_id
        self.route = "other"
        self.tenant: Optional[str] = None
        self.status = 0
        self.wall_us = 0
        self.queue_depth = 0
        self.spans: List[Dict[str, Any]] = []
        self._seq = 0

    def add(
        self,
        track: str,
        name: str,
        ts: float,
        dur: float,
        parent_span_id: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Record one finished span; returns its span id for chaining.

        ``ts``/``dur`` are server-uptime seconds; stored as integer µs.
        """
        span_id = child_span_id(self.trace_id, name, self._seq)
        self._seq += 1
        span: Dict[str, Any] = {
            "track": track,
            "name": name,
            "ts_us": int(round(ts * 1e6)),
            "dur_us": max(0, int(round(dur * 1e6))),
            "span_id": span_id,
            "parent_span_id": parent_span_id or self.client_span_id,
        }
        if args:
            span["args"] = dict(args)
        self.spans.append(span)
        return span_id

    def report(self) -> Dict[str, Any]:
        """The canonical ``repro/obs/reqtrace/v1`` dict for this trace.

        The ``client`` envelope span is synthesized here — its id is the
        span id the client sent, its interval covers every recorded
        span, so it is correct whether or not the async commit has
        landed yet.
        """
        spans = sorted(
            self.spans,
            key=lambda s: (s["ts_us"], _TRACK_PID.get(s["track"], 99), s["name"]),
        )
        if spans:
            t0 = min(s["ts_us"] for s in spans)
            t1 = max(s["ts_us"] + s["dur_us"] for s in spans)
        else:  # pragma: no cover - the http span always exists
            t0 = t1 = 0
        client_span = {
            "track": "client",
            "name": "client.request",
            "ts_us": t0,
            "dur_us": t1 - t0,
            "span_id": self.client_span_id,
            "parent_span_id": None,
        }
        return {
            "schema": REQTRACE_SCHEMA,
            "trace_id": self.trace_id,
            "route": self.route,
            "tenant": self.tenant,
            "status": self.status,
            "wall_us": self.wall_us,
            "queue_depth": self.queue_depth,
            "spans": [client_span] + spans,
        }

    def summary(self) -> Dict[str, Any]:
        """The one-line form the slowest listing serves."""
        return {
            "trace_id": self.trace_id,
            "route": self.route,
            "tenant": self.tenant,
            "status": self.status,
            "wall_us": self.wall_us,
            "n_spans": len(self.spans) + 1,
        }


class RequestTraceLog:
    """Bounded span ring + per-route slowest-trace retention.

    ``finish()`` appends a completed request to the ring (evicting the
    oldest once ``ring_size`` is reached) and promotes it into the
    per-route top-``slowest_per_route`` table when it qualifies; commit
    workers keep attaching spans to a trace for as long as either
    structure still holds it.  Thread-safe — the HTTP loop and the
    executor threads both touch it.
    """

    def __init__(self, ring_size: int = 512, slowest_per_route: int = 8):
        self.ring_size = max(1, int(ring_size))
        self.slowest_per_route = max(1, int(slowest_per_route))
        self._lock = threading.Lock()
        self._ring: List[str] = []
        self._traces: Dict[str, RequestTrace] = {}
        #: route -> [(wall_us, trace_id)] sorted slowest-first.
        self._slowest: Dict[str, List[Tuple[int, str]]] = {}
        self.finished = 0
        self.evicted = 0

    def finish(self, trace: RequestTrace) -> None:
        """Register one completed request (response already written)."""
        with self._lock:
            self.finished += 1
            self._traces[trace.trace_id] = trace
            self._ring.append(trace.trace_id)
            route_top = self._slowest.setdefault(trace.route, [])
            route_top.append((trace.wall_us, trace.trace_id))
            route_top.sort(key=lambda wt: (-wt[0], wt[1]))
            del route_top[self.slowest_per_route:]
            while len(self._ring) > self.ring_size:
                victim = self._ring.pop(0)
                self.evicted += 1
                if not self._is_retained(victim):
                    self._traces.pop(victim, None)

    def _is_retained(self, trace_id: str) -> bool:
        return any(
            trace_id == tid
            for top in self._slowest.values()
            for _w, tid in top
        ) or trace_id in self._ring

    def get(self, trace_id: str) -> Optional[RequestTrace]:
        """The live trace object for an id still in the ring/exemplars."""
        with self._lock:
            return self._traces.get(trace_id)

    def attach(
        self,
        trace_id: str,
        track: str,
        name: str,
        ts: float,
        dur: float,
        parent_span_id: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> Optional[str]:
        """Append one post-response span (commit workers); None if evicted."""
        with self._lock:
            trace = self._traces.get(trace_id)
            if trace is None:
                return None
            return trace.add(track, name, ts, dur, parent_span_id, args)

    def slowest(
        self, route: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Slowest-trace summaries, slowest first (optionally one route)."""
        with self._lock:
            if route is not None:
                pairs = list(self._slowest.get(route, []))
            else:
                pairs = sorted(
                    (wt for top in self._slowest.values() for wt in top),
                    key=lambda wt: (-wt[0], wt[1]),
                )
            out = []
            for _wall, tid in pairs[: (limit or self.slowest_per_route)]:
                trace = self._traces.get(tid)
                if trace is not None:
                    out.append(trace.summary())
            return out

    def stats(self) -> Dict[str, int]:
        """Ring occupancy counters for ``/v1/stats``."""
        with self._lock:
            return {
                "ring": len(self._ring),
                "ring_size": self.ring_size,
                "retained": len(self._traces),
                "finished": self.finished,
                "evicted": self.evicted,
            }


# -- export -------------------------------------------------------------------


def trace_to_chrome(report: Dict[str, Any]) -> Dict[str, Any]:
    """One reqtrace report as validated-shape Chrome trace-event JSON.

    Rendered through the same :class:`~repro.obs.spans.SpanRecorder` +
    :func:`~repro.obs.perfetto.to_chrome_trace` path the simulator uses
    — one Perfetto process row per component track, span args carrying
    the span/parent ids so the causal chain is inspectable in the UI.
    """
    rec = SpanRecorder()
    for i, track in enumerate(TRACKS):
        rec.name_track(i, track, 0, report["trace_id"][:8])
    for span in report.get("spans", []):
        pid = _TRACK_PID.get(span["track"], len(TRACKS))
        if pid == len(TRACKS):  # pragma: no cover - unknown track guard
            rec.name_track(pid, str(span["track"]), 0, report["trace_id"][:8])
        args = {
            "span_id": span["span_id"],
            "parent_span_id": span.get("parent_span_id") or "",
            "trace_id": report["trace_id"],
        }
        for k, v in (span.get("args") or {}).items():
            args[k] = v
        rec.complete(
            pid, 0, span["name"], "service",
            span["ts_us"] / 1e6, span["dur_us"] / 1e6, args,
        )
    return to_chrome_trace(rec)


def _span_tree(report: Dict[str, Any]) -> Tuple[List[SpanNode], Dict[int, str]]:
    """Explicit-parent span forest (critpath ``SpanNode``s) + track map.

    The track map is keyed by ``id(node)`` — ``SpanNode`` is slotted, so
    the component track rides alongside rather than on the node.
    """
    nodes: Dict[str, SpanNode] = {}
    tracks: Dict[int, str] = {}
    for span in report.get("spans", []):
        node = SpanNode(
            span["name"], "service", span["ts_us"] / 1e6, span["dur_us"] / 1e6
        )
        nodes[span["span_id"]] = node
        tracks[id(node)] = span["track"]
    roots: List[SpanNode] = []
    for span in report.get("spans", []):
        parent = span.get("parent_span_id")
        node = nodes[span["span_id"]]
        if parent and parent in nodes and nodes[parent] is not node:
            nodes[parent].children.append(node)
        else:
            roots.append(node)
    return roots, tracks


def trace_flamegraph_lines(report: Dict[str, Any]) -> List[str]:
    """Collapsed-stack lines for one trace, self-time-weighted in µs.

    Same format as :func:`repro.obs.critpath.flamegraph_lines` (sorted,
    integer-µs weights, zero-weight stacks dropped), with the route as
    the root frame and explicit parent links instead of interval
    containment supplying the nesting.
    """
    roots, _tracks = _span_tree(report)
    return collapsed_stacks([(str(report.get("route") or "other"), roots)])


def render_trace(report: Dict[str, Any]) -> str:
    """Human-readable rendering of one request trace (indented chain)."""
    lines: List[str] = []
    title = "request %s  route=%s tenant=%s status=%s wall=%.3f ms" % (
        report["trace_id"][:16],
        report.get("route"),
        report.get("tenant") or "-",
        report.get("status"),
        report.get("wall_us", 0) / 1e3,
    )
    lines.append(title)
    lines.append("=" * len(title))
    roots, tracks = _span_tree(report)

    def walk(node: SpanNode, depth: int) -> None:
        lines.append(
            "  %s%-26s [%-6s] t=%9.3f ms  dur=%9.3f ms  self=%9.3f ms"
            % ("  " * depth, node.name, tracks.get(id(node), "?"),
               node.ts * 1e3, node.dur * 1e3, node.self_time * 1e3)
        )
        for child in sorted(node.children, key=lambda n: (n.ts, n.name)):
            walk(child, depth + 1)

    for root in sorted(roots, key=lambda n: (n.ts, n.name)):
        walk(root, 0)
    crossed = sorted(
        {s["track"] for s in report.get("spans", [])},
        key=lambda t: _TRACK_PID.get(t, 99),
    )
    lines.append("tracks crossed: %s" % " -> ".join(crossed))
    return "\n".join(lines) + "\n"


# -- live dashboard (repro obs top) ------------------------------------------


def _route_rows(metrics: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-route latency rows from ``service.request_seconds{...}``."""
    hists: Dict[str, Any] = metrics.get("histograms") or {}
    rows: List[Dict[str, Any]] = []
    for key in sorted(hists):
        if not key.startswith("service.route_seconds{route="):
            continue
        route = key[len("service.route_seconds{route="):].rstrip("}")
        h = hists[key]
        rows.append(
            {
                "route": route,
                "count": int(h.get("count", 0)),
                "p50_ms": quantile_from_snapshot(h, 0.50) * 1e3,
                "p99_ms": quantile_from_snapshot(h, 0.99) * 1e3,
            }
        )
    return rows


def render_top(
    stats: Dict[str, Any],
    metrics: Dict[str, Any],
    slowest: List[Dict[str, Any]],
    prev_counters: Optional[Dict[str, Any]] = None,
    interval: Optional[float] = None,
) -> str:
    """One frame of the live operational dashboard (``repro obs top``).

    ``stats``/``metrics`` are the ``/v1/stats`` and ``/v1/metrics``
    bodies; ``slowest`` the ``/v1/traces/slowest`` listing.  When the
    previous poll's counters and the poll interval are given, the frame
    carries a live req/s figure; the first frame shows totals only.
    """
    counters: Dict[str, Any] = metrics.get("counters") or {}
    lines: List[str] = []
    uptime = float(metrics.get("end_time", 0.0))
    total = int(counters.get("service.requests", 0))
    rate = ""
    if prev_counters is not None and interval and interval > 0:
        delta = total - int(prev_counters.get("service.requests", 0))
        rate = "  %8.1f req/s" % (delta / interval)
    queue = stats.get("queue") or {}
    title = "repro service — up %8.1f s   %d requests%s" % (uptime, total, rate)
    lines.append(title)
    lines.append("=" * len(title))
    lines.append(
        "queue %d/%d in flight   committed %d   discarded %d   tenants %d"
        % (
            int(queue.get("depth", 0)),
            int(queue.get("capacity", 0)),
            int(queue.get("committed", 0)),
            int(queue.get("discarded", 0)),
            int(stats.get("tenants", len(stats.get("per_tenant", {}) or {}))),
        )
    )
    statuses = sorted(
        (k[len("service.status."):], v)
        for k, v in counters.items()
        if k.startswith("service.status.") and not k.endswith("xx")
    )
    if statuses:
        lines.append(
            "status mix: "
            + "  ".join("%s=%d" % (code, n) for code, n in statuses)
        )
    rows = _route_rows(metrics)
    if rows:
        lines.append("%-10s %10s %12s %12s" % ("route", "count", "p50 ms", "p99 ms"))
        for row in rows:
            lines.append(
                "%-10s %10d %12.3f %12.3f"
                % (row["route"], row["count"], row["p50_ms"], row["p99_ms"])
            )
    if slowest:
        lines.append("slowest requests:")
        for s in slowest[:8]:
            lines.append(
                "  %s  %-8s %-10s %4s %10.3f ms  (%d spans)"
                % (
                    s["trace_id"][:16],
                    s.get("route"),
                    s.get("tenant") or "-",
                    s.get("status"),
                    s.get("wall_us", 0) / 1e3,
                    s.get("n_spans", 0),
                )
            )
    return "\n".join(lines) + "\n"

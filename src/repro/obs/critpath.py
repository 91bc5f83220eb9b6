"""Critical-path attribution over an exported telemetry payload.

The span recorder (:mod:`repro.obs.spans`) captures every dispatched call
as a complete interval on a ``(node, rank)`` track.  This module turns
those flat interval lists into answers about *where time went*:

* :func:`build_forest` — per-track span trees recovered from interval
  nesting (a syscall inside an MPI-IO libcall becomes its child);
* :func:`stack_layer` — the span -> stack-layer attribution map
  (``des`` / ``simos`` / ``network`` / ``simfs`` / ``simmpi`` /
  ``framework``), where *self time* charged to ``simfs`` is the
  blockdev-bound data path (read/write/fsync service time);
* :func:`span_rollup` — the one self-time rollup every report sums:
  busy time, self time by span name and by layer, and the last
  completion instant, optionally clipped to a time window;
* :func:`critical_path` — the slowest-rank chain that bounds elapsed
  time (the paper's N-to-1 stragglers made visible): the straggler
  track, its per-layer self-time profile, and the root-to-leaf span
  chain ending at the run's final completion;
* :func:`flamegraph_lines` — collapsed-stack lines
  (``node0;rank 1;MPI_File_open;SYS_open 42``) for any flamegraph
  renderer, self-time-weighted in integer microseconds, written by
  :func:`collapsed_stacks` (which the slice and request flamegraphs
  share).

Everything here is a pure function of the payload; with the simulator's
determinism contract the output is byte-identical across ``jobs=1`` /
``jobs=N`` / warm-cache replays of the run that produced it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, TypeVar

from repro.errors import TelemetryError
from repro.obs.metrics import canonical_json
from repro.obs.perfetto import _US
from repro.obs.spans import KERNEL_PID
from repro.trace.events import EventLayer, calls_of

__all__ = [
    "CRITPATH_SCHEMA",
    "STACK_LAYERS",
    "DATA_SYSCALLS",
    "SpanNode",
    "stack_layer",
    "payload_spans",
    "build_forest",
    "span_rollup",
    "straggler",
    "collapsed_stacks",
    "critical_path",
    "flamegraph_lines",
    "render_critical_path",
]

CRITPATH_SCHEMA = "repro/obs/critpath/v1"

#: The stack layers self time is attributed to, reporting order.
STACK_LAYERS: Tuple[str, ...] = (
    "des",
    "simos",
    "network",
    "simfs",
    "simmpi",
    "framework",
)

#: Syscalls whose service time is dominated by the filesystem/blockdev
#: data path — their self time is charged to the ``simfs`` layer.
DATA_SYSCALLS = calls_of("read", "write", "fsync", layers=(EventLayer.SYSCALL,))

_K = TypeVar("_K")


def stack_layer(cat: str, name: str, pid: Optional[int] = None) -> str:
    """Attribute one span to a stack layer (see :data:`STACK_LAYERS`).

    ``cat`` is the span category the tracepoints record (the capture
    layer for OS calls, ``collective`` for MPI waits); ``name`` refines
    syscalls into data-path (``simfs``) versus control-path (``simos``)
    and libcalls into MPI (``simmpi``) versus tracer (``framework``).
    """
    if pid == KERNEL_PID:
        return "des"
    if cat == "collective":
        return "simmpi"
    if cat == "net":
        return "network"
    if cat == "vfs":
        return "simfs"
    if cat == "libcall":
        return "simmpi" if name.startswith(("MPI_", "MPIO_")) else "framework"
    if cat == "syscall":
        return "simfs" if name in DATA_SYSCALLS else "simos"
    return "framework"


class SpanNode:
    """One span in a recovered tree: interval + children + self time."""

    __slots__ = ("name", "cat", "ts", "dur", "children")

    def __init__(self, name: str, cat: str, ts: float, dur: float):
        self.name = name
        self.cat = cat
        self.ts = ts
        self.dur = dur
        self.children: List["SpanNode"] = []

    @property
    def end(self) -> float:
        """The span's completion instant (simulated seconds)."""
        return self.ts + self.dur

    @property
    def self_time(self) -> float:
        """Duration not covered by child spans (clamped at zero)."""
        return max(0.0, self.dur - sum(c.dur for c in self.children))


def payload_spans(
    payload: Dict[str, Any],
) -> List[Tuple[int, int, str, str, float, float]]:
    """Extract ``(pid, tid, name, cat, ts, dur)`` spans (seconds) from a
    ``repro/telemetry/v1`` payload's embedded Chrome trace.

    Raises :class:`~repro.errors.TelemetryError` for non-payload input.
    """
    if not isinstance(payload, dict) or payload.get("schema") != "repro/telemetry/v1":
        raise TelemetryError(
            "not a repro/telemetry/v1 payload (schema=%r)"
            % (payload.get("schema") if isinstance(payload, dict) else type(payload))
        )
    events = payload.get("trace", {}).get("traceEvents", [])
    out = []
    for e in events:
        if e.get("ph") != "X":
            continue
        out.append(
            (
                int(e["pid"]),
                int(e["tid"]),
                str(e["name"]),
                str(e.get("cat", "")),
                float(e["ts"]) / _US,
                float(e["dur"]) / _US,
            )
        )
    return out


def track_names(payload: Dict[str, Any]) -> Dict[Tuple[int, int], str]:
    """``(pid, tid) -> display name`` from the trace's metadata events."""
    names: Dict[Tuple[int, int], str] = {}
    process: Dict[int, str] = {}
    for e in payload.get("trace", {}).get("traceEvents", []):
        if e.get("ph") != "M":
            continue
        if e.get("name") == "process_name":
            process[int(e["pid"])] = str(e["args"]["name"])
        elif e.get("name") == "thread_name":
            names[(int(e["pid"]), int(e["tid"]))] = str(e["args"]["name"])
    for (pid, tid), tname in list(names.items()):
        pname = process.get(pid)
        if pname:
            names[(pid, tid)] = "%s %s" % (pname, tname)
    return names


def build_forest(
    spans: List[Tuple[int, int, str, str, float, float]],
) -> Dict[Tuple[int, int], List[SpanNode]]:
    """Recover per-track span trees from flat intervals.

    Spans on one track nest by interval containment (calls on a rank are
    sequential, so a span starting inside another completes inside it).
    Within a track, spans sort by ``(start, -duration, name, record
    order)`` — a parent precedes its children, and exact ``(start,
    duration)`` ties (zero-duration markers especially) order by *name*
    before record order, so collapsed stacks come out byte-identical no
    matter how the recorder happened to interleave the tied spans.
    """
    by_track: Dict[Tuple[int, int], List[Tuple[float, float, str, int, str]]] = {}
    for seq, (pid, tid, name, cat, ts, dur) in enumerate(spans):
        by_track.setdefault((pid, tid), []).append((ts, -dur, name, seq, cat))
    forest: Dict[Tuple[int, int], List[SpanNode]] = {}
    for track in sorted(by_track):
        roots: List[SpanNode] = []
        stack: List[SpanNode] = []
        for ts, neg_dur, name, _seq, cat in sorted(by_track[track]):
            node = SpanNode(name, cat, ts, -neg_dur)
            while stack and node.ts >= stack[-1].end and not (
                node.dur == 0.0 and node.ts == stack[-1].end and stack[-1].dur > 0.0
            ):
                stack.pop()
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)
        forest[track] = roots
    return forest


def span_rollup(
    roots: Iterable[SpanNode],
    pid: Optional[int] = None,
    window: Optional[Tuple[float, float]] = None,
) -> Dict[str, Any]:
    """Self-time rollup of span trees: the one walk every report sums.

    Visits every node under ``roots`` depth first (a parent before its
    children, children in forest order) and returns ``busy`` (summed
    root durations), ``end`` (latest completion), ``layers`` (layer ->
    self seconds, :func:`stack_layer` with ``pid``) and ``names`` (span
    name -> ``{count, total, self}``).  With ``window=(t0, t1)`` only
    nodes overlapping the window count.  Sums accumulate node by node
    in visit order, so a caller that wants per-track sums rolls each
    track up on its own, and one that wants a run-wide sum passes every
    track's roots at once.
    """
    layers: Dict[str, float] = {}
    names: Dict[str, Dict[str, float]] = {}
    end = 0.0
    busy = 0.0
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            stack.extend(reversed(node.children))
            node_end = node.ts + node.dur
            if window is not None and (node_end <= window[0] or node.ts >= window[1]):
                continue
            if node is root:
                busy += node.dur
            if node_end > end:
                end = node_end
            self_t = node.self_time
            layer = stack_layer(node.cat, node.name, pid)
            layers[layer] = layers.get(layer, 0.0) + self_t
            cell = names.get(node.name)
            if cell is None:
                cell = names[node.name] = {"count": 0, "total": 0.0, "self": 0.0}
            cell["count"] += 1
            cell["total"] += node.dur
            cell["self"] += self_t
    return {"busy": busy, "end": end, "layers": layers, "names": names}


def straggler(ends: Mapping[_K, float]) -> _K:
    """The key with the latest end; ties break toward the smallest key,
    so the pick is deterministic."""
    return min(ends, key=lambda k: (-ends[k], k))


def collapsed_stacks(tracks: Iterable[Tuple[str, Iterable[SpanNode]]]) -> List[str]:
    """Collapsed-stack flamegraph lines for ``(prefix, roots)`` pairs.

    Each line is ``prefix;frame;frame value``: one frame per span from
    the root down, weighted by that span's self time in integer
    microseconds.  A ``;`` inside a span name becomes ``,`` so the name
    stays one frame.  Zero-weight stacks are dropped, equal stacks sum,
    and the lines come out sorted.
    """
    weights: Dict[str, int] = {}
    for prefix, roots in tracks:
        todo = [(prefix, root) for root in roots]
        while todo:
            parent, node = todo.pop()
            stack = "%s;%s" % (parent, node.name.replace(";", ","))
            us = int(round(node.self_time * _US))
            if us > 0:
                weights[stack] = weights.get(stack, 0) + us
            todo.extend((stack, child) for child in node.children)
    return ["%s %d" % (stack, us) for stack, us in sorted(weights.items())]


def critical_path(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The slowest-rank chain bounding elapsed time, as a plain report.

    The *straggler* is the track whose last span completes latest (ties
    break toward the smallest ``(node, rank)``); the *chain* is the
    root-to-leaf span path ending at that completion — each link carries
    its layer attribution and self time, so the report names both the
    straggler rank and the layer that kept it busy.
    """
    spans = payload_spans(payload)
    forest = build_forest(spans)
    stats = {track: span_rollup(roots, track[0]) for track, roots in forest.items()}
    labels = track_names(payload)

    tracks_report = []
    total_layers: Dict[str, float] = {}
    for track in sorted(stats):
        pid, tid = track
        s = stats[track]
        for layer, t in s["layers"].items():
            total_layers[layer] = total_layers.get(layer, 0.0) + t
        tracks_report.append(
            {
                "node": pid,
                "rank": tid,
                "track": labels.get(track, "node%d rank %d" % (pid, tid)),
                "busy": s["busy"],
                "end": s["end"],
                "layers": {k: v for k, v in sorted(s["layers"].items())},
            }
        )

    straggler_row = None
    chain: List[Dict[str, Any]] = []
    end_time = 0.0
    if stats:
        track = straggler({t: s["end"] for t, s in stats.items()})
        end_time = stats[track]["end"]
        pid, tid = track
        straggler_row = {
            "node": pid,
            "rank": tid,
            "track": labels.get(track, "node%d rank %d" % (pid, tid)),
            "end": end_time,
        }
        # Descend from the root whose subtree reaches the final instant.
        level = forest[track]
        while level:
            node = min(level, key=lambda n: (-n.end, -n.ts, n.name))
            chain.append(
                {
                    "name": node.name,
                    "cat": node.cat,
                    "layer": stack_layer(node.cat, node.name, pid),
                    "ts": node.ts,
                    "dur": node.dur,
                    "self": node.self_time,
                }
            )
            level = node.children

    report = {
        "schema": CRITPATH_SCHEMA,
        "end_time": end_time,
        "n_spans": len(spans),
        "tracks": tracks_report,
        "straggler": straggler_row,
        "chain": chain,
        "layers": {k: v for k, v in sorted(total_layers.items())},
    }
    return json.loads(canonical_json(report))


def flamegraph_lines(payload: Dict[str, Any]) -> List[str]:
    """Collapsed-stack flamegraph lines, self-time-weighted (microseconds).

    Each line is ``frame;frame;... value`` — the format every flamegraph
    renderer (Brendan Gregg's scripts, speedscope, inferno) consumes.
    The first two frames are the node and rank tracks, then the span
    chain.  Values are integer microseconds of *self* time; zero-weight
    stacks are dropped.  Output is sorted, so it is byte-stable for
    byte-identical payloads.
    """
    forest = build_forest(payload_spans(payload))
    labels = track_names(payload)

    def prefix(pid: int, tid: int) -> str:
        label = labels.get((pid, tid))
        return label.replace(";", ",") if label else "node%d;rank %d" % (pid, tid)

    return collapsed_stacks(
        (prefix(pid, tid), roots) for (pid, tid), roots in forest.items()
    )


def render_critical_path(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`critical_path` report."""
    lines: List[str] = []
    title = "critical path (%d spans, elapsed %.6f s)" % (
        report["n_spans"],
        report["end_time"],
    )
    lines.append(title)
    lines.append("=" * len(title))
    layers = report["layers"]
    if layers:
        lines.append("self time by layer (all ranks):")
        for layer in STACK_LAYERS:
            if layer in layers:
                lines.append("  %-12s %12.6f s" % (layer, layers[layer]))
    straggler = report["straggler"]
    if straggler is None:
        lines.append("no spans recorded — nothing to attribute")
        lines.append("(telemetry captured without spans? re-run with --telemetry)")
        return "\n".join(lines) + "\n"
    lines.append(
        "straggler: %s (finishes last at %.6f s)"
        % (straggler["track"], straggler["end"])
    )
    if report["chain"]:
        lines.append("slowest-rank chain (root -> leaf):")
        for depth, link in enumerate(report["chain"]):
            lines.append(
                "  %s%-28s %-10s dur=%.6f self=%.6f"
                % ("  " * depth, link["name"], link["layer"], link["dur"],
                   link["self"])
            )
    return "\n".join(lines) + "\n"

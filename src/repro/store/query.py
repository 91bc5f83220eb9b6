"""The parallel query engine over a TraceBank archive.

A query is answered in three stages:

1. **Select** — run manifests are filtered by metadata equality
   (``where``) and run-id prefixes;
2. **Prune** — each candidate segment's manifest summary is checked
   against the query's rank/op/layer/time predicates
   (:meth:`~repro.store.segments.SegmentMeta.may_match`): segments that
   cannot contain a matching event are never read — predicate pushdown;
3. **Scan** — each surviving shard's records are walked once; the
   columns the filters read are projected for every event, and the
   aggregate's other fields only for the events that pass (late
   materialization, no event objects).  Shards fan out over worker
   processes via :func:`repro.fanout.parallel_map`.

Partial results are merged in shard order (sorted by ``(run_id, rank,
sha)``) regardless of worker completion order, so query output is
byte-identical across ``jobs=1`` and ``jobs=N``, the same determinism
contract the sweep harness pins down.  Reports are canonical by
construction: plain JSON values only (lists, ``str`` keys, finite
floats), every dict's keys inserted in sorted order, so a caller
renders one with a single :func:`~repro.obs.metrics.canonical_json`
call and never needs to normalize it.

Aggregates: ``events`` (the matching events themselves), ``ops``
(per-function call/time histogram, the Figure-1 summary shape), ``bytes``
(per-rank event/byte counts), and ``bandwidth`` (payload bytes over fixed
time windows).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import StoreQueryError
from repro.fanout import parallel_map
from repro.obs.metrics import canonical_json
from repro.obs.perfetto import _US
from repro.obs.tracepoints import STATE, record_call
from repro.store.bank import TraceBank
from repro.store.manifest import RunManifest
from repro.store.segments import archive_errors
from repro.trace.binary_format import project

__all__ = [
    "AGGREGATES",
    "Query",
    "run_query",
    "scan_events",
    "SPAN_FIELDS",
    "run_columns",
    "column_spans",
    "telemetry_view",
    "events_telemetry",
]

#: The supported ``Query.agg`` values.
AGGREGATES: Tuple[str, ...] = ("events", "ops", "bytes", "bandwidth")

QUERY_SCHEMA = "repro/store/query/v1"


@dataclass(frozen=True)
class Query:
    """One declarative archive query (filters + aggregate choice).

    Filters compose conjunctively.  ``ranks``/``names``/``layers`` are
    membership tests; ``path_glob`` is an ``fnmatch`` pattern over the
    event path; ``since``/``until`` bound event *start* timestamps as the
    half-open window ``[since, until)``.  ``where`` filters whole runs by
    manifest metadata equality (dotted keys reach into nested mappings,
    values compare as strings); ``runs`` selects runs by id prefix.
    ``window`` is the ``bandwidth`` bucket width in simulated seconds;
    ``limit`` truncates the ``events`` aggregate after global ordering.
    """

    agg: str = "ops"
    ranks: Optional[Tuple[int, ...]] = None
    names: Optional[Tuple[str, ...]] = None
    layers: Optional[Tuple[str, ...]] = None
    path_glob: Optional[str] = None
    since: Optional[float] = None
    until: Optional[float] = None
    where: Tuple[Tuple[str, str], ...] = ()
    runs: Optional[Tuple[str, ...]] = None
    window: float = 0.05
    limit: Optional[int] = None

    @staticmethod
    def create(
        agg: str = "ops",
        ranks: Optional[Iterable[int]] = None,
        names: Optional[Iterable[str]] = None,
        layers: Optional[Iterable[str]] = None,
        path_glob: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        where: Optional[Mapping[str, Any]] = None,
        runs: Optional[Iterable[str]] = None,
        window: float = 0.05,
        limit: Optional[int] = None,
    ) -> "Query":
        """Build a query from plain Python collections (dicts, lists)."""
        return Query(
            agg=agg,
            ranks=tuple(sorted(set(int(r) for r in ranks))) if ranks else None,
            names=tuple(sorted(set(str(n) for n in names))) if names else None,
            layers=tuple(sorted(set(str(l) for l in layers))) if layers else None,
            path_glob=path_glob,
            since=since,
            until=until,
            where=tuple(sorted((str(k), str(v)) for k, v in (where or {}).items())),
            runs=tuple(sorted(set(str(r) for r in runs))) if runs else None,
            window=float(window),
            limit=limit,
        )

    @staticmethod
    def from_params(params: Mapping[str, List[str]]) -> "Query":
        """Build a query from URL query parameters (:meth:`to_params`).

        Mirrors the ``repro store query`` flags one-to-one (``ranks``,
        ``ops``, ``layers``, ``path_glob``, ``since``, ``until``,
        ``window``, ``limit``, ``runs``, ``where.<key>=<value>``, ``agg``)
        so a service answer is byte-identical to the CLI's over the same
        namespace.  Values may repeat or be comma-separated.  Raises
        :class:`~repro.errors.StoreQueryError` on malformed values.
        """

        def multi(name: str) -> Optional[List[str]]:
            values: List[str] = []
            for raw in params.get(name, []):
                values.extend(v for v in raw.split(",") if v)
            return values or None

        def scalar(name: str, kind: type) -> Any:
            raw = params.get(name)
            if not raw:
                return None
            try:
                return kind(raw[0])
            except ValueError:
                raise StoreQueryError(
                    "bad %s for %r: %r" % (kind.__name__, name, raw[0])
                ) from None

        ranks_raw = multi("ranks")
        try:
            ranks = [int(r) for r in ranks_raw] if ranks_raw is not None else None
        except ValueError:
            raise StoreQueryError("bad integer in ranks=%r" % (ranks_raw,)) from None
        window = scalar("window", float)
        return Query.create(
            agg=(params.get("agg") or ["ops"])[0],
            ranks=ranks,
            names=multi("ops"),
            layers=multi("layers"),
            path_glob=(params.get("path_glob") or [None])[0],
            since=scalar("since", float),
            until=scalar("until", float),
            where=params_with_prefix(params, "where."),
            runs=multi("runs"),
            window=0.05 if window is None else window,
            limit=scalar("limit", int),
        )

    def to_params(self) -> List[Tuple[str, str]]:
        """The query as URL ``(name, value)`` pairs for ``urlencode``; the
        inverse of :meth:`from_params` (floats travel as ``repr``).

        :meth:`from_params` splits ``ops``, ``layers`` and ``runs`` values
        on commas, so a value holding one raises
        :class:`~repro.errors.StoreQueryError` instead of being sent as
        two filters.
        """
        for name, values in (("ops", self.names), ("layers", self.layers),
                             ("runs", self.runs)):
            for value in values or ():
                if "," in value:
                    raise StoreQueryError(
                        "%s value %r holds a comma, which the service reads "
                        "as a separator between values" % (name, value)
                    )
        pairs = [("agg", self.agg)]
        pairs += [("ranks", str(r)) for r in self.ranks or ()]
        pairs += [("ops", n) for n in self.names or ()]
        pairs += [("layers", l) for l in self.layers or ()]
        if self.path_glob is not None:
            pairs.append(("path_glob", self.path_glob))
        if self.since is not None:
            pairs.append(("since", repr(self.since)))
        if self.until is not None:
            pairs.append(("until", repr(self.until)))
        pairs += [("where." + k, v) for k, v in self.where]
        pairs += [("runs", r) for r in self.runs or ()]
        pairs.append(("window", repr(self.window)))
        if self.limit is not None:
            pairs.append(("limit", str(self.limit)))
        return pairs

    def validate(self) -> None:
        """Reject malformed queries with a typed error."""
        if self.agg not in AGGREGATES:
            raise StoreQueryError(
                "unknown aggregate %r (known: %s)" % (self.agg, ", ".join(AGGREGATES))
            )
        for name in ("since", "until", "window"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise StoreQueryError("%s must be finite, got %r" % (name, value))
        if self.window <= 0:
            raise StoreQueryError("bandwidth window must be positive")
        if self.limit is not None and self.limit < 0:
            raise StoreQueryError("limit must be non-negative")
        if (
            self.since is not None
            and self.until is not None
            and self.until <= self.since
        ):
            raise StoreQueryError("empty time window: until <= since")

    def plan(self) -> Dict[str, Any]:
        """The pickle-safe scan plan shipped to worker processes (keys
        in sorted order: it is also the echo's ``filters``)."""
        return {
            "agg": self.agg,
            "layers": list(self.layers) if self.layers is not None else None,
            "names": list(self.names) if self.names is not None else None,
            "path_glob": self.path_glob,
            "ranks": list(self.ranks) if self.ranks is not None else None,
            "since": self.since,
            "until": self.until,
            "window": self.window,
        }

    def echo(self) -> Dict[str, Any]:
        """The query's echo embedded in every report (canonical: keys in
        sorted order)."""
        return {
            "agg": self.agg,
            "filters": self.plan(),
            "limit": self.limit,
            "runs": list(self.runs) if self.runs is not None else None,
            "where": dict(sorted(self.where)),
        }


def params_with_prefix(params: Mapping[str, List[str]], prefix: str) -> Dict[str, str]:
    """The ``<prefix><key>=<value>`` URL parameters as ``{key: value}``;
    a repeated key keeps its last value."""
    return {
        key[len(prefix):]: values[-1]
        for key, values in params.items()
        if key.startswith(prefix) and values
    }


def _meta_lookup(meta: Mapping[str, Any], dotted: str) -> Any:
    node: Any = meta
    for part in dotted.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return node


def _where_matches(m: RunManifest, query: Query) -> bool:
    for key, want in query.where:
        got = _meta_lookup(m.meta, key)
        if got is None or str(got) != want:
            return False
    return True


def select_shards(
    bank: TraceBank, query: Query
) -> Tuple[List[RunManifest], List[Tuple[str, int, str]], Dict[str, int]]:
    """Stages 1+2: pick runs, prune segments; returns deterministic shards.

    Only the manifests ``query.runs`` names are parsed
    (:meth:`~repro.store.bank.TraceBank.select_manifests`), so a full run
    id reads one file whatever the archive's size.  Shards are sorted
    ``(run_id, rank, sha)`` tuples — the merge order every aggregate uses.
    """
    runs_total, named = bank.select_manifests(query.runs)
    selected = [m for m in named if _where_matches(m, query)]
    shards: List[Tuple[str, int, str]] = []
    total = pruned = 0
    ranks = set(query.ranks) if query.ranks is not None else None
    names = set(query.names) if query.names is not None else None
    layers = set(query.layers) if query.layers is not None else None
    for m in selected:
        for seg in m.segments:
            total += 1
            if seg.may_match(
                ranks=ranks,
                names=names,
                layers=layers,
                since=query.since,
                until=query.until,
            ):
                shards.append((m.run_id, seg.rank, seg.sha256))
            else:
                pruned += 1
    shards.sort()
    stats = {
        "runs_selected": len(selected),
        "runs_total": runs_total,
        "segments_pruned": pruned,
        "segments_scanned": len(shards),
        "segments_total": total,
    }
    return selected, shards, stats


def scan_report(scan: Mapping[str, int], matched: int) -> Dict[str, int]:
    """A report's ``scan`` section: :func:`select_shards`' stats plus the
    events matched, keys in sorted order."""
    return {"events_matched": matched, **scan}


def require_finite(values: Iterable[float], what: str) -> None:
    """Raise :class:`~repro.errors.StoreQueryError` unless every value is
    finite.

    Decoded timestamps and durations are finite (the decoders refuse
    others), but sums and quotients of extreme ones can overflow, and a
    report holds finite floats only.
    """
    if not all(map(math.isfinite, values)):
        raise StoreQueryError(
            "%s overflows to a non-finite value, which a report cannot hold"
            % what
        )


#: Columns each aggregate reads from a segment.
_AGG_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "events": ("duration", "fd", "hostname", "layer", "name", "nbytes",
               "offset", "path", "pid", "result", "timestamp"),
    "ops": ("name", "duration"),
    "bytes": ("nbytes",),
    "bandwidth": ("timestamp", "nbytes"),
}


def _filter_columns(plan: Dict[str, Any]) -> List[str]:
    """Columns the plan's event-level predicates read."""
    need: List[str] = []
    if plan["names"] is not None:
        need.append("name")
    if plan["layers"] is not None:
        need.append("layer")
    if plan["since"] is not None or plan["until"] is not None:
        need.append("timestamp")
    if plan["path_glob"] is not None:
        need.append("path")
    return need


def _keep(filt: Dict[str, List[Any]], plan: Dict[str, Any], n: int) -> Sequence[int]:
    """Capture indices of the events every predicate of ``plan`` keeps.

    Each predicate narrows the survivors of the one before, reading its
    column from ``filt``; the path glob is evaluated once per distinct
    path, not once per event.
    """
    keep: Sequence[int] = range(n)
    if plan["names"] is not None:
        names, col = set(plan["names"]), filt["name"]
        keep = [i for i in keep if col[i] in names]
    if plan["layers"] is not None:
        layers, col = set(plan["layers"]), filt["layer"]
        keep = [i for i in keep if col[i] in layers]
    since, until = plan["since"], plan["until"]
    if since is not None:
        col = filt["timestamp"]
        keep = [i for i in keep if col[i] >= since]
    if until is not None:
        col = filt["timestamp"]
        keep = [i for i in keep if col[i] < until]
    glob = plan["path_glob"]
    if glob is not None:
        col = filt["path"]
        paths = {p for p in set(col) if p is not None and fnmatchcase(p, glob)}
        keep = [i for i in keep if col[i] in paths]
    return keep


def scan_columns(
    task: Tuple[TraceBank, str, int, str, Dict[str, Any]], fields: Sequence[str]
) -> Tuple[Dict[str, List[Any]], Sequence[int]]:
    """Scan one shard: the events the plan keeps, as ``fields`` columns.

    The one scan path of every aggregate and the DFG.  It walks the
    segment's records once (:meth:`~repro.store.bank.TraceBank.
    read_records`), projects the columns the filters read for every
    event, and projects the other ``fields`` only for the events that
    pass (late materialization), so a string field of a dropped event
    is never decoded.  Returns the ``fields`` columns aligned to the
    kept events, and the kept events' capture indices.  Rank, op-name
    and time bounds that whole segments fail were already pruned by
    :meth:`~repro.store.segments.SegmentMeta.may_match`; this applies
    the same predicates per event.  The task carries the caller's
    opened bank, so a worker reads only the shard's segment.
    """
    bank, _run_id, _rank, sha, plan = task
    rows = bank.read_records(sha)
    with archive_errors(sha):
        filt = {f: project(rows, f) for f in _filter_columns(plan)}
        keep = _keep(filt, plan, len(rows))
        if len(keep) == len(rows):  # nothing dropped: no subsetting
            return {f: filt[f] if f in filt else project(rows, f)
                    for f in fields}, keep
        kept = [rows[i] for i in keep]
        cols = {
            f: [filt[f][i] for i in keep] if f in filt else project(kept, f)
            for f in fields
        }
    return cols, keep


def _scan_shard(task: Tuple[TraceBank, str, int, str, Dict[str, Any]]) -> Dict[str, Any]:
    """Project + filter + partially aggregate one shard (worker entry).

    Module-level so it pickles into :func:`~repro.fanout.parallel_map`
    worker processes.  Partial results use only plain JSON types; float
    sums (``ops`` durations) accumulate in segment order.
    """
    _bank, run_id, rank, _sha, plan = task
    agg = plan["agg"]
    cols, idxs = scan_columns(task, _AGG_COLUMNS[agg])
    out: Dict[str, Any] = {"matched": len(idxs)}
    if agg == "events":
        # Each row's keys in sorted order: the report is canonical as built.
        out["events"] = [
            {"duration": du, "fd": fd, "hostname": hn, "layer": ly,
             "name": nm, "nbytes": nb, "offset": off, "path": pa, "pid": pid,
             "rank": rank, "result": res, "run": run_id, "seq": i,
             "timestamp": ts}
            for i, du, fd, hn, ly, nm, nb, off, pa, pid, res, ts in zip(
                idxs, *(cols[f] for f in _AGG_COLUMNS["events"]))
        ]
    elif agg == "ops":
        ops: Dict[str, List[float]] = {}
        for name, dur in zip(cols["name"], cols["duration"]):
            cell = ops.setdefault(name, [0, 0.0])
            cell[0] += 1
            cell[1] += dur
        out["ops"] = ops
    elif agg == "bytes":
        out["rank"] = rank
        out["events"] = len(idxs)
        out["bytes"] = sum(v for v in cols["nbytes"] if v is not None)
    else:  # bandwidth
        window = plan["window"]
        buckets: Dict[str, int] = {}
        try:
            for ts, v in zip(cols["timestamp"], cols["nbytes"]):
                if v is not None:
                    key = str(int(ts // window))
                    buckets[key] = buckets.get(key, 0) + v
        except OverflowError:  # ts // window is inf: no bucket index
            raise StoreQueryError(
                "bandwidth window %r is too small for timestamps near %r"
                % (window, ts)
            ) from None
        out["buckets"] = buckets
    return out


def _merge_result(query: Query, partials: Sequence[Dict[str, Any]]) -> Tuple[Dict[str, Any], int]:
    """Merge shard partials, in shard order, into the report's
    ``result`` (keys in sorted order at every level)."""
    matched = sum(p["matched"] for p in partials)
    if query.agg == "events":
        rows = [row for p in partials for row in p["events"]]
        rows.sort(key=lambda r: (r["timestamp"], r["run"], r["rank"], r["seq"]))
        truncated = query.limit is not None and len(rows) > query.limit
        if truncated:
            rows = rows[: query.limit]
        return {"events": rows, "truncated": truncated}, matched
    if query.agg == "ops":
        ops: Dict[str, List[float]] = {}
        for p in partials:
            for name, (calls, total) in sorted(p["ops"].items()):
                cell = ops.setdefault(name, [0, 0.0])
                cell[0] += calls
                cell[1] += total
        require_finite((t for _c, t in ops.values()), "an op's total time")
        return {
            "ops": {
                name: {"calls": int(c), "total_time": t}
                for name, (c, t) in sorted(ops.items())
            }
        }, matched
    if query.agg == "bytes":
        ranks: Dict[str, Dict[str, int]] = {}
        for p in partials:
            cell = ranks.setdefault(str(p["rank"]), {"bytes": 0, "events": 0})
            cell["events"] += p["events"]
            cell["bytes"] += p["bytes"]
        total_bytes = sum(c["bytes"] for c in ranks.values())
        # Rank keys in string order ("10" before "2"), as every key is.
        return {"ranks": dict(sorted(ranks.items())),
                "total_bytes": total_bytes}, matched
    # bandwidth
    buckets: Dict[int, int] = {}
    for p in partials:
        for key, nbytes in p["buckets"].items():
            idx = int(key)
            buckets[idx] = buckets.get(idx, 0) + nbytes
    w = query.window
    rows = [
        {
            "bandwidth": nbytes / w,
            "bytes": nbytes,
            "t0": idx * w,
            "t1": (idx + 1) * w,
        }
        for idx, nbytes in sorted(buckets.items())
    ]
    require_finite((r[k] for r in rows for k in ("bandwidth", "t0", "t1")),
                   "a bandwidth bucket")
    return {"buckets": rows, "window": w}, matched


def run_query(
    bank: TraceBank, query: Query, jobs: int = 1
) -> Dict[str, Any]:
    """Answer one query; returns the report dict, canonical as built
    (see the module docstring).

    ``jobs > 1`` fans the shard scans over worker processes with results
    merged in shard order — output bytes never depend on the job count.
    Emits ``store.scan.*`` telemetry when a collector is active.
    """
    query.validate()
    _selected, shards, scan = select_shards(bank, query)
    plan = query.plan()
    tasks = [(bank, run_id, rank, sha, plan) for run_id, rank, sha in shards]
    partials = parallel_map(_scan_shard, tasks, jobs=jobs)
    result, matched = _merge_result(query, partials)
    col = STATE.collector
    if col is not None:
        col.store_scan(scan["segments_scanned"], scan["segments_pruned"], matched)
    return {
        "query": query.echo(),
        "result": result,
        "scan": scan_report(scan, matched),
        "schema": QUERY_SCHEMA,
    }


def scan_events(
    bank: TraceBank, query: Query, jobs: int = 1
) -> List[Dict[str, Any]]:
    """Convenience: the ``events`` aggregate's globally ordered rows."""
    report = run_query(bank, replace(query, agg="events"), jobs=jobs)
    return report["result"]["events"]


#: The columns an archived run's spans are built from
#: (:func:`column_spans`); a path anchor adds ``path`` and a telemetry
#: payload ``nbytes`` (:func:`events_telemetry`).
SPAN_FIELDS: Tuple[str, ...] = ("name", "layer", "timestamp", "duration", "hostname")


def run_columns(
    bank: TraceBank, manifest: RunManifest, fields: Sequence[str] = SPAN_FIELDS
) -> List[Tuple[int, str, Dict[str, List[Any]]]]:
    """One archived run as ``(rank, sha, columns)`` per segment, in
    manifest order: each segment's records walked once
    (:meth:`~repro.store.bank.TraceBank.read_records`) and ``fields``
    projected from them, so no event is built.  Raises
    :class:`~repro.errors.StoreCorruptionError` for a segment that is
    missing, mis-hashed or undecodable."""
    out = []
    for seg in manifest.segments:
        rows = bank.read_records(seg.sha256)
        with archive_errors(seg.sha256):
            out.append((seg.rank, seg.sha256, {f: project(rows, f) for f in fields}))
    return out


def _host_columns(
    segments: Sequence[Tuple[int, str, Dict[str, List[Any]]]],
) -> Tuple[List[List[str]], Dict[str, int]]:
    """Each segment's host column (``rank%d`` for a record that names no
    host) and the node numbering: one node per host, in sorted order."""
    hosts = [
        [host or "rank%d" % rank for host in cols["hostname"]]
        for rank, _sha, cols in segments
    ]
    names = sorted({host for col in hosts for host in col})
    return hosts, {host: i for i, host in enumerate(names)}


def column_spans(
    segments: Sequence[Tuple[int, str, Dict[str, List[Any]]]],
) -> Tuple[List[Tuple[int, int, str, str, float, float]], Dict[Tuple[int, int], str]]:
    """A run's ``(pid, tid, name, cat, ts, dur)`` spans and track labels
    from its :data:`SPAN_FIELDS` columns (:func:`run_columns`).

    Equal to :func:`~repro.obs.critpath.payload_spans` and
    :func:`~repro.obs.critpath.track_names` of the run's
    :func:`events_telemetry` payload, without building it: a node per
    host in sorted order, one track per ``(node, rank)`` labelled
    ``node<i> <host> rank <r>``, spans in record order, and times scaled
    to the trace's microseconds and back, as the payload stores them.
    """
    hosts, node_index = _host_columns(segments)
    spans = []
    labels: Dict[Tuple[int, int], str] = {}
    for (rank, _sha, cols), host_col in zip(segments, hosts):
        for host, name, layer, ts, dur in zip(
            host_col, cols["name"], cols["layer"], cols["timestamp"], cols["duration"]
        ):
            node = node_index[host]
            if (node, rank) not in labels:
                labels[node, rank] = "node%d %s rank %d" % (node, host, rank)
            spans.append((node, rank, name, layer, ts * _US / _US, dur * _US / _US))
    return spans, labels


def telemetry_view(bank: TraceBank, run_id: str) -> Dict[str, Any]:
    """Synthesize a ``repro/telemetry/v1`` payload from an archived run.

    Lets ``repro obs diff``/``critpath`` address runs by TraceBank run-id
    prefix even when they were archived without ``--telemetry``: the
    archived records are replayed into a fresh metrics registry and span
    recorder (:func:`events_telemetry`).  Only what the trace captured is
    reconstructed — DES/network/disk internals of the original run are
    absent, which is fine for diffing what the *frameworks* saw.

    Purely content-derived, so the payload is byte-identical wherever
    and whenever the view is built.  Resolves the run once and reads
    each segment once.  Raises :class:`~repro.errors.StoreError` on
    unknown/ambiguous prefixes.
    """
    m = bank.manifest(run_id)
    return events_telemetry(m.run_id, run_columns(bank, m, SPAN_FIELDS + ("nbytes",)))


def events_telemetry(
    run_id: str, segments: Sequence[Tuple[int, str, Dict[str, List[Any]]]]
) -> Dict[str, Any]:
    """:func:`telemetry_view`'s payload from a run's :data:`SPAN_FIELDS`
    and ``nbytes`` columns (:func:`run_columns`), for callers that read
    the columns for something else too.

    Each record goes through the live ``os_call`` tracepoint's own
    recording (:func:`~repro.obs.tracepoints.record_call`: per-layer call
    counters, call-seconds and request-bytes histograms, one span per
    call on a ``(node, rank)`` track).
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.perfetto import to_chrome_trace
    from repro.obs.spans import SpanRecorder

    hosts, node_index = _host_columns(segments)
    registry = MetricsRegistry()
    recorder = SpanRecorder()
    end_time = 0.0
    for (rank, _sha, cols), host_col in zip(segments, hosts):
        tname = "rank %d" % rank
        for host, name, layer, ts, dur, nbytes in zip(
            host_col, cols["name"], cols["layer"], cols["timestamp"],
            cols["duration"], cols["nbytes"],
        ):
            record_call(registry, recorder, node_index[host], host, rank,
                        tname, layer, name, ts, dur, nbytes)
            end_time = max(end_time, ts + dur)
    payload = {
        "schema": "repro/telemetry/v1",
        "metrics": registry.snapshot(end_time=end_time),
        "trace": to_chrome_trace(recorder),
        "source": {"kind": "store", "run_id": run_id},
    }
    return json.loads(canonical_json(payload))

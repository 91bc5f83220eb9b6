"""Property: reports are canonical as built and equal a full-projection scan.

``run_query`` and ``build_dfg`` scan with late materialization (filter
columns for every event, the aggregate's other fields for the kept
events only) and build their reports in canonical key order instead of
normalizing them through a JSON round trip.  The reference here is the
scan that projects every column first and filters afterwards, with its
report normalized through ``json.loads(canonical_json(...))``; for any
archive and any filters the two must agree value for value and byte for
byte, at one job and at two.
"""

import json
import shutil
import tempfile
from fnmatch import fnmatchcase
from pathlib import Path

from hypothesis import given, settings, strategies as st

from storeutil import CORPUS, make_bundle

from repro.obs.metrics import canonical_json
from repro.store.bank import TraceBank
from repro.store.dfg import DFG_SCHEMA, build_dfg, merge_shard_graphs, shard_graph
from repro.store.query import (
    AGGREGATES,
    QUERY_SCHEMA,
    Query,
    run_query,
    select_shards,
)
from repro.trace.binary_format import project
from repro.trace.events import EventLayer

NAMES = ("SYS_write", "SYS_read", "SYS_open", "vfs_write")
PATHS = ("/pfs/a", "/pfs/b/c", "/tmp/x", None)
LAYERS = tuple(layer.value for layer in EventLayer)
BASE_TS = (0.0, 0.05, 0.13)
ALL_COLUMNS = ("timestamp", "duration", "layer", "name", "pid", "hostname",
               "path", "fd", "nbytes", "offset", "result")
JSON_TYPES = (dict, list, str, int, float, bool, type(None))


# -- the reference: project every column, then filter -----------------------


def reference_scan(bank, sha, plan):
    """The full-projection scan: every column of every event, then the
    per-event filter loop."""
    rows = bank.read_records(sha)
    cols = {f: project(rows, f) for f in ALL_COLUMNS}
    names = set(plan["names"]) if plan["names"] is not None else None
    layers = set(plan["layers"]) if plan["layers"] is not None else None
    since, until, glob = plan["since"], plan["until"], plan["path_glob"]
    keep = []
    for i in range(len(cols["name"])):
        if names is not None and cols["name"][i] not in names:
            continue
        if layers is not None and cols["layer"][i] not in layers:
            continue
        if since is not None and cols["timestamp"][i] < since:
            continue
        if until is not None and cols["timestamp"][i] >= until:
            continue
        path = cols["path"][i]
        if glob is not None and (path is None or not fnmatchcase(path, glob)):
            continue
        keep.append(i)
    return cols, keep


def reference_partial(bank, run_id, rank, sha, plan):
    cols, keep = reference_scan(bank, sha, plan)
    agg = plan["agg"]
    out = {"matched": len(keep)}
    if agg == "events":
        out["events"] = [
            dict({f: cols[f][i] for f in ALL_COLUMNS}, run=run_id, rank=rank, seq=i)
            for i in keep
        ]
    elif agg == "ops":
        ops = {}
        for i in keep:
            cell = ops.setdefault(cols["name"][i], [0, 0.0])
            cell[0] += 1
            cell[1] += cols["duration"][i]
        out["ops"] = ops
    elif agg == "bytes":
        out.update(rank=rank, events=len(keep), bytes=sum(
            cols["nbytes"][i] for i in keep if cols["nbytes"][i] is not None))
    else:
        buckets = {}
        for i in keep:
            if cols["nbytes"][i] is not None:
                key = int(cols["timestamp"][i] // plan["window"])
                buckets[key] = buckets.get(key, 0) + cols["nbytes"][i]
        out["buckets"] = buckets
    return out


def reference_result(query, partials):
    if query.agg == "events":
        rows = sorted((r for p in partials for r in p["events"]),
                      key=lambda r: (r["timestamp"], r["run"], r["rank"], r["seq"]))
        truncated = query.limit is not None and len(rows) > query.limit
        return {"events": rows[: query.limit] if truncated else rows,
                "truncated": truncated}
    if query.agg == "ops":
        ops = {}
        for p in partials:
            for name, (calls, total) in sorted(p["ops"].items()):
                cell = ops.setdefault(name, [0, 0.0])
                cell[0] += calls
                cell[1] += total
        return {"ops": {n: {"calls": c, "total_time": t} for n, (c, t) in ops.items()}}
    if query.agg == "bytes":
        ranks = {}
        for p in partials:
            cell = ranks.setdefault(str(p["rank"]), {"events": 0, "bytes": 0})
            cell["events"] += p["events"]
            cell["bytes"] += p["bytes"]
        return {"ranks": ranks, "total_bytes": sum(c["bytes"] for c in ranks.values())}
    buckets = {}
    for p in partials:
        for idx, nbytes in p["buckets"].items():
            buckets[idx] = buckets.get(idx, 0) + nbytes
    w = query.window
    return {"window": w, "buckets": [
        {"t0": i * w, "t1": (i + 1) * w, "bytes": b, "bandwidth": b / w}
        for i, b in sorted(buckets.items())
    ]}


def reference_report(bank, query, dfg=False):
    """What the query (or DFG) must answer, normalized by a JSON round trip."""
    _selected, shards, scan = select_shards(bank, query)
    plan = query.plan()
    if dfg:
        partials = []
        for _run_id, _rank, sha in shards:
            cols, keep = reference_scan(bank, sha, plan)
            partials.append(shard_graph([
                (cols["name"][i], cols["timestamp"][i], cols["duration"][i])
                for i in keep
            ]))
        graph, matched = merge_shard_graphs(partials)
        body = {"schema": DFG_SCHEMA, "graph": graph}
    else:
        partials = [reference_partial(bank, run_id, rank, sha, plan)
                    for run_id, rank, sha in shards]
        matched = sum(p["matched"] for p in partials)
        body = {"schema": QUERY_SCHEMA, "result": reference_result(query, partials)}
    body.update(query=query.echo(), scan=dict(scan, events_matched=matched))
    return json.loads(canonical_json(body))


# -- the checks --------------------------------------------------------------


def assert_plain_json(value):
    """Every value is a plain JSON type (no subclasses, no tuples) and
    every key a ``str``."""
    assert type(value) in JSON_TYPES, (type(value), value)
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, key
            assert_plain_json(item)
    elif type(value) is list:
        for item in value:
            assert_plain_json(item)


def assert_canonical_and_equal(report, want):
    assert_plain_json(report)
    text = canonical_json(report)
    # Keys already come in canonical order: no sorting is needed.
    assert json.dumps(report, separators=(",", ":"), allow_nan=False) == text
    assert report == want
    assert text == canonical_json(want)


# -- the strategies ------------------------------------------------------------

event_change = st.fixed_dictionaries({
    "name": st.sampled_from(NAMES),
    "layer": st.sampled_from(LAYERS),
    "path": st.sampled_from(PATHS),
    "nbytes": st.sampled_from((None, 0, 4096, 1 << 20)),
    "duration": st.floats(min_value=0.0, max_value=0.02),
})


@st.composite
def bundles(draw):
    """``make_bundle`` runs (up to 12 ranks, so rank keys sort as
    strings) with each event's op, layer, path, size and duration
    redrawn."""
    bundle = make_bundle(nranks=draw(st.integers(1, 12)),
                         n=draw(st.integers(0, 10)),
                         base_ts=draw(st.sampled_from(BASE_TS)))
    for tf in bundle.files.values():
        changes = draw(st.lists(event_change, min_size=len(tf.events),
                                max_size=len(tf.events)))
        tf.events[:] = [e.with_fields(**c) for e, c in zip(tf.events, changes)]
    return bundle


def _multi(values):
    return st.none() | st.lists(values, min_size=1, max_size=3)


queries = st.builds(
    Query.create,
    agg=st.sampled_from(AGGREGATES),
    ranks=_multi(st.integers(0, 12)),
    names=_multi(st.sampled_from(NAMES + ("SYS_close", "absent"))),
    layers=_multi(st.sampled_from(LAYERS)),
    path_glob=st.none() | st.sampled_from(("/pfs/*", "*", "/tmp/?", "/nope*")),
    # The bundles' first timestamps are among the bounds, so a bound
    # sometimes falls exactly on an event.
    since=st.none() | st.sampled_from(BASE_TS)
    | st.floats(min_value=0.0, max_value=0.2),
    until=st.none() | st.sampled_from(BASE_TS[1:])
    | st.floats(min_value=0.01, max_value=0.3),
    where=st.none() | st.sampled_from(
        ({"workload": "unit"}, {"seed": "1"}, {"framework": "lanl-trace"})),
    runs=st.none() | st.lists(st.sampled_from(("", "0", "8", "f", "fdfe")),
                              min_size=1, max_size=2),
    window=st.sampled_from((0.01, 0.05, 0.5)),
    limit=st.none() | st.integers(min_value=0, max_value=40),
).filter(lambda q: q.since is None or q.until is None or q.until > q.since)


@given(runs=st.lists(bundles(), min_size=1, max_size=2),
       cases=st.lists(st.tuples(queries, st.sampled_from((1, 2))),
                      min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_reports_are_canonical_and_match_the_full_projection(runs, cases):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        shutil.copytree(CORPUS / "archive", root)  # the store corpus run
        bank = TraceBank(root, create=False)
        for seed, bundle in enumerate(runs):
            bank.ingest_bundle(bundle, meta={"seed": seed})
        for query, jobs in cases:
            assert_canonical_and_equal(run_query(bank, query, jobs=jobs),
                                       reference_report(bank, query))
            assert_canonical_and_equal(build_dfg(bank, query, jobs=jobs),
                                       reference_report(bank, query, dfg=True))

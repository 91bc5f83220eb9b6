"""The archive's read paths: the manifest files are its only index.

A run id is looked up by its file name, no read writes into the archive,
one opened bank serves a whole query, DFG, verify or diagnosis, a
report is rendered to JSON once, and a query, DFG, slice, diagnosis or
telemetry view builds no events.
"""

import asyncio
import hashlib
import json
import sys

import pytest

from storeutil import make_bundle

import repro.obs.metrics
import repro.obs.perfetto
from repro.cli import main
from repro.errors import StoreError
from repro.obs.diagnose import diagnose_archive
from repro.obs.metrics import MetricsRegistry
from repro.obs.slice import slice_from_store
from repro.store.bank import TraceBank
from repro.store.dfg import build_dfg
from repro.store.manifest import RunManifest
from repro.store.query import AGGREGATES, Query, run_query, telemetry_view
from repro.trace import binary_format
from repro.zoo.replaypipe import load_source


@pytest.fixture
def parses(monkeypatch):
    """Every manifest body ``RunManifest.loads`` parses from here on."""
    calls = []
    real = RunManifest.loads

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(RunManifest, "loads", staticmethod(counting))
    return calls


@pytest.fixture
def reads(monkeypatch):
    """Every segment file ``TraceBank.read_segment_blob`` reads from here
    on, whether it is then decoded or projected."""
    calls = []
    real = TraceBank.read_segment_blob

    def counting(self, sha):
        calls.append(sha)
        return real(self, sha)

    monkeypatch.setattr(TraceBank, "read_segment_blob", counting)
    return calls


@pytest.fixture
def renders(monkeypatch):
    """The schema of every report ``canonical_json`` renders from here on.

    Every loaded module's binding of the function is wrapped, and a
    module imported later binds the wrapper, so no call goes uncounted.
    """
    calls = []
    real = repro.obs.metrics.canonical_json

    def counting(obj):
        if isinstance(obj, dict) and "schema" in obj:
            calls.append(obj["schema"])
        return real(obj)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "canonical_json", None) is real:
            monkeypatch.setattr(module, "canonical_json", counting)
    return calls


@pytest.fixture
def builds(monkeypatch):
    """Every event build from here on: a call of the batch event builder,
    or of ``decode_trace_file`` through any module's binding of it."""
    calls = []
    real_build = binary_format._build_events
    real_decode = binary_format.decode_trace_file

    def building(rows):
        calls.append("build")
        return real_build(rows)

    def decoding(data):
        calls.append("decode")
        return real_decode(data)

    monkeypatch.setattr(binary_format, "_build_events", building)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "decode_trace_file", None) is real_decode:
            monkeypatch.setattr(module, "decode_trace_file", decoding)
    return calls


@pytest.fixture
def payloads(monkeypatch):
    """Every part of a telemetry payload built from here on: a
    ``MetricsRegistry`` constructed, or a ``to_chrome_trace`` call
    through any module's binding of it."""
    calls = []
    real_init = MetricsRegistry.__init__
    real_render = repro.obs.perfetto.to_chrome_trace

    def constructing(self):
        calls.append("registry")
        real_init(self)

    def rendering(spans):
        calls.append("chrome-trace")
        return real_render(spans)

    monkeypatch.setattr(MetricsRegistry, "__init__", constructing)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "to_chrome_trace", None) is real_render:
            monkeypatch.setattr(module, "to_chrome_trace", rendering)
    return calls


def _snapshot(root):
    """Every path under ``root``, with each file's content digest."""
    return {
        str(p.relative_to(root)): (
            hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
        )
        for p in root.rglob("*")
    }


class TestReadsAreReadOnly:
    def test_every_read_leaves_the_archive_unchanged(self, archive):
        bank, ids = archive
        before = _snapshot(bank.root)
        assert [m.run_id for m in bank.manifests()] == sorted(ids)
        assert bank.manifest(ids[0]).run_id == ids[0]
        assert bank.manifest(ids[1][:10]).run_id == ids[1]
        for agg in AGGREGATES:
            run_query(bank, Query(agg=agg))
        build_dfg(bank, Query())
        assert bank.verify()["ok"]
        assert bank.stats()["runs"] == 5
        report = diagnose_archive(str(bank.root))
        assert [o["run_id"] for o in report["outliers"]] == [ids[4]]
        assert report["outliers"][0]["slice"] is not None
        slice_from_store(bank, ids[0][:10])
        _bundle, resolution = load_source([ids[2][:10]], store=str(bank.root))
        assert resolution["run_id"] == ids[2]
        assert _snapshot(bank.root) == before


class TestLookupByName:
    def test_full_id_and_unique_prefix_resolve(self, archive):
        bank, ids = archive
        for run_id in ids:
            assert bank.manifest(run_id).run_id == run_id
            assert bank.manifest(run_id[:12]).run_id == run_id

    def test_non_hex_prefix_matches_nothing(self, archive):
        bank, ids = archive
        target = ids[0]
        assert target.upper() != target
        for prefix in (
            "*", target[:4] + "*", "?", target[:63] + "?", "[0-9a-f]",
            target[:4] + "[", "/", target[:4] + "/", "..", "../store",
            "../manifests/" + target, target.upper(), "ABC",
        ):
            with pytest.raises(StoreError, match="no archived run matches"):
                bank.manifest(prefix)

    def test_error_messages_unchanged(self, archive):
        bank, _ids = archive
        with pytest.raises(StoreError, match=r"^no archived run matches 'zz'$"):
            bank.manifest("zz")
        with pytest.raises(
            StoreError, match=r"^run id prefix '' is ambiguous \(5 matches\)$"
        ):
            bank.manifest("")

    def test_corrupt_manifest_of_another_run_is_skipped(self, archive):
        bank, ids = archive
        target = ids[0]
        other = target[:8] + ("0" if target[8] != "0" else "1") + "f" * 55
        bank.manifest_path(other).write_text("{not json")
        assert bank.manifest(target[:8]).run_id == target
        assert bank.manifest(target).run_id == target
        with pytest.raises(StoreError, match="no archived run matches"):
            bank.manifest(other)
        assert bank.run_ids() == sorted(ids)

    def test_misnamed_manifest_is_skipped_and_reported(self, archive):
        bank, ids = archive
        slow = ids[4]  # the only run whose segments no other run shares
        alias = "f" * 64
        assert alias not in ids
        bank.manifest_path(slow).rename(bank.manifest_path(alias))
        for run_id in (alias, slow, "fff"):
            with pytest.raises(StoreError, match="no archived run matches"):
                bank.manifest(run_id)
        assert bank.run_ids() == sorted(ids[:4])
        report = bank.verify()
        assert [e["error"] for e in report["errors"]] == [
            "manifest run_id %s does not match its filename" % slow[:12]
        ]
        assert report["orphan_segments"] == []
        # Its segments stay pinned: renaming the file back restores the run.
        assert bank.gc(tmp_ttl_seconds=0.0)["removed_segments"] == []

    @pytest.mark.parametrize("corrupt", ["not-utf8", "ops-not-a-mapping", "nested-json"])
    def test_malformed_manifest_is_skipped_and_reported(self, archive, corrupt):
        bank, ids = archive
        path = bank.manifest_path(ids[4])
        if corrupt == "not-utf8":
            path.write_bytes(b"\xff\xfe{")
        elif corrupt == "nested-json":
            # Nested past the recursion limit: corrupt, not a crash.
            # 20,001 lists pass every interpreter's limit; CPython 3.12+
            # parses up to 10,000 (its C recursion limit).
            path.write_text('{"x":%s%s}' % ("[" * 20_001, "]" * 20_001))
        else:
            body = json.loads(path.read_text("utf-8"))
            body["segments"][0]["ops"] = ["SYS_write"]
            path.write_text(json.dumps(body))
        assert bank.run_ids() == sorted(ids[:4])
        with pytest.raises(StoreError, match="no archived run matches"):
            bank.manifest(ids[4])
        report = bank.verify()
        assert [(e["run_id"], e["error"].split(":")[0]) for e in report["errors"]] == [
            (ids[4], "manifest unreadable")
        ]

    def test_full_id_parses_one_manifest(self, archive, parses):
        bank, ids = archive
        assert bank.manifest(ids[3]).run_id == ids[3]
        assert len(parses) == 1
        assert bank.manifest(ids[3][:12]).run_id == ids[3]
        assert len(parses) == 2

    @pytest.mark.parametrize(
        "argv, want_parses, want_reads",
        [
            (["store", "ls", "--store", "{store}"], 5, 0),
            (["observe", "{store}"], 5, 0),
            (["store", "query", "--store", "{store}", "--runs", "{run}"], 1, 2),
            (["store", "dfg", "--store", "{store}", "--runs", "{run}"], 1, 2),
            (["obs", "slice", "--store", "{store}", "{run}"], 1, 2),
            (["obs", "slice", "--store", "{store}", "{run}", "--path", "*",
              "--flame", "{out}.flame", "--perfetto", "{out}.json"], 1, 2),
            (["obs", "critpath", "--store", "{store}", "{run}"], 1, 2),
            (["obs", "diff", "--store", "{store}", "{run}", "{run}"], 2, 4),
            (["obs", "diagnose", "--store", "{store}"], 6, 12),
            (["obs", "diagnose", "--store", "{store}", "--run-prefix", "{prefix}"],
             1, 2),
            (["zoo", "replay", "--store", "{store}", "{run}"], 1, 2),
        ],
        ids=["store-ls", "observe", "store-query", "store-dfg", "obs-slice",
             "obs-slice-path-flame-perfetto", "obs-critpath", "obs-diff",
             "obs-diagnose", "obs-diagnose-prefix", "zoo-replay"],
    )
    def test_commands_parse_only_the_runs_they_report(
        self, archive, parses, reads, tmp_path, argv, want_parses, want_reads
    ):
        # A listing parses each manifest once; a command given one run
        # resolves it once, whatever the archive's size, and reads each
        # of its segment files once.  ``obs diagnose`` lists every run and
        # reads each one's segments, then slices its one outlier (one
        # lookup, one read per segment: the slice's DFG reuses its decode).
        bank, ids = archive
        fields = {"store": bank.root, "run": ids[2], "prefix": ids[2][:12],
                  "out": tmp_path / "out"}
        assert main([a.format(**fields) for a in argv]) == 0
        assert (len(parses), len(reads)) == (want_parses, want_reads)

    def test_queries_select_runs_by_file_name(self, archive):
        # ``runs`` prefixes follow ``manifest()``'s rule, and
        # ``runs_total`` counts the archive's manifest files.
        bank, ids = archive
        cases = [
            ([ids[1]], [ids[1]]),
            ([ids[1][:12], ids[3][:12]], sorted([ids[1], ids[3]])),
            ([""], sorted(ids)),
            (["*"], []),
            ([ids[1].upper()], []),
            (["../manifests/" + ids[1]], []),
        ]
        for runs, want in cases:
            rep = run_query(bank, Query.create(agg="events", runs=runs))
            assert rep["scan"]["runs_total"] == 5
            assert rep["scan"]["runs_selected"] == len(want)
            assert sorted({row["run"] for row in rep["result"]["events"]}) == want
        bank.manifest_path(ids[4]).write_text("{not json")
        scan = run_query(bank, Query())["scan"]
        assert (scan["runs_total"], scan["runs_selected"]) == (5, 4)

    def test_stale_index_file_is_ignored(self, archive):
        bank, ids = archive
        want = [m.to_json() for m in bank.manifests()]
        (bank.root / "index.json").write_text(json.dumps({
            "schema": "repro/store/index/v1",
            "entries": {"%s.json" % ids[0]: {"size": 0, "mtime_ns": 0,
                                             "manifest": {"bogus": True}}},
        }))
        assert [m.to_json() for m in bank.manifests()] == want
        assert bank.manifest(ids[0]).run_id == ids[0]
        assert bank.verify()["ok"]


class TestOneRenderPerReport:
    @pytest.mark.parametrize(
        "argv, schema",
        [
            (["store", "query", "--store", "{store}", "--agg", "events", "--json"],
             "repro/store/query/v1"),
            (["store", "dfg", "--store", "{store}", "--json"], "repro/store/dfg/v1"),
        ],
        ids=["store-query-events-json", "store-dfg-json"],
    )
    def test_commands_render_their_report_once(self, archive, renders, capsys,
                                               argv, schema):
        # The report is canonical as built: printing it is its one render.
        bank, _ids = archive
        assert main([a.format(store=bank.root) for a in argv]) == 0
        assert renders == [schema]
        assert json.loads(capsys.readouterr().out)["schema"] == schema

    def test_a_service_query_renders_its_report_once(self, tmp_path, renders):
        from repro.service.api import Request, ServiceApp
        from repro.trace.binary_format import encode_trace_file

        app = ServiceApp(tmp_path / "svc")
        body = encode_trace_file(make_bundle(nranks=1).files[0])

        async def run():
            await app.startup()
            try:
                await app.handle(Request("POST", "/v1/t/alice/ingest",
                                         {"rank": ["0"], "sync": ["1"]}, {}, body))
                del renders[:]
                return await app.handle(
                    Request("GET", "/v1/t/alice/query", {"agg": ["events"]}))
            finally:
                await app.shutdown()

        resp = asyncio.run(run())
        assert resp.status == 200
        assert renders == ["repro/store/query/v1"]


class TestOneBankPerOperation:
    def test_no_operation_reopens_the_bank_at_one_job(self, archive, monkeypatch):
        bank, ids = archive
        opened = []
        real_init = TraceBank.__init__

        def counting(self, *args, **kwargs):
            opened.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(TraceBank, "__init__", counting)
        for agg in AGGREGATES:
            run_query(bank, Query(agg=agg), jobs=1)
        build_dfg(bank, Query(), jobs=1)
        assert bank.verify(jobs=1)["ok"]
        assert opened == []
        report = diagnose_archive(str(bank.root), jobs=1)
        assert report["outliers"][0]["slice"] is not None
        assert len(opened) == 1  # the bank it opens on the root it was given


class TestScansBuildNoEvents:
    @pytest.mark.parametrize("where", [{}, {"since": 0.035, "path_glob": "/pfs/*"}],
                             ids=["every-event", "event-filter"])
    def test_queries_and_dfgs_project_without_building_events(
        self, archive, reads, builds, where
    ):
        # The scan projects columns from the walker's raw records; it
        # never builds a TraceEvent, whatever the aggregate or filter.
        bank, ids = archive
        for agg in AGGREGATES:
            matched = run_query(bank, Query.create(agg=agg, **where))["scan"]["events_matched"]
            assert 0 < matched <= 80
            assert (matched < 80) == bool(where)
        assert build_dfg(bank, Query.create(**where))["scan"]["events_matched"] == matched
        assert len(reads) == 5 * 10
        assert builds == []
        # A full read is counted: it decodes through the batch builder.
        bank.read_segment(bank.manifest(ids[0]).segments[0].sha256)
        assert builds == ["decode", "build"]

    @pytest.mark.parametrize("anchor", [[], ["--rank", "1"], ["--op", "SYS_write"],
                                        ["--path", "/pfs/*"]],
                             ids=["straggler", "rank", "op", "path"])
    @pytest.mark.parametrize("rendered", [False, True], ids=["report", "rendered"])
    def test_store_slices_build_no_events(
        self, archive, builds, payloads, tmp_path, anchor, rendered
    ):
        # A slice reads its run as columns.  Only the Perfetto and
        # flamegraph renderings need a telemetry payload, built once from
        # the same columns.
        bank, ids = archive
        argv = ["obs", "slice", "--store", str(bank.root), ids[4]] + anchor
        if rendered:
            argv += ["--perfetto", str(tmp_path / "s.json"),
                     "--flame", str(tmp_path / "s.flame")]
        assert main(argv) == 0
        assert builds == []
        assert payloads == (["registry", "chrome-trace"] if rendered else [])

    def test_diagnose_builds_no_events_and_no_payload(self, archive, builds, payloads):
        bank, ids = archive
        report = diagnose_archive(str(bank.root))
        assert [o["run_id"] for o in report["outliers"]] == [ids[4]]
        assert report["outliers"][0]["slice"] is not None
        assert main(["obs", "diagnose", "--store", str(bank.root)]) == 0
        assert builds == []
        assert payloads == []

    def test_telemetry_views_build_no_events(self, archive, builds, payloads):
        bank, ids = archive
        for run_id in ids:
            assert telemetry_view(bank, run_id)["source"]["run_id"] == run_id
        assert builds == []
        assert payloads == ["registry", "chrome-trace"] * len(ids)

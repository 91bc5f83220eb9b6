"""Mixed-format archives: RTBF and legacy RTCF segments side by side.

Ingest writes only RTBF (the Tracefs binary format), but archives
written when columnar RTCF segments could still be chosen must keep
working.  ``corpus/`` holds such an archive, committed as the last RTCF
writer left it: one run stored both ways.  Readers sniff the format per
blob, so verify checks both, gc keeps both, and queries, DFGs and
bundle loads give the reports that writer's release gave — for either
run, any job count and either manifest-cache temperature.
"""

import json
from dataclasses import replace

import pytest

from storeutil import CORPUS_QUERIES, bundle_json, corpus_bank, corpus_bundle

from repro.errors import TraceFormatError
from repro.obs.metrics import canonical_json
from repro.store import Query, TraceBank, run_query
from repro.store.dfg import build_dfg
from repro.store.segments import decode_segment, segment_columns
from repro.trace import columnar

LABELS = ("rtbf", "rtcf")


def normalized(report, run_id):
    """A report with run-id references scrubbed and results as text.

    RTBF stores results as text and re-parses numeric-looking ones as
    ints, while RTCF kept their type, so the two runs' ``events`` rows
    compare on rendered results.
    """
    rep = json.loads(json.dumps(report))
    rep["query"]["runs"] = None
    for row in rep.get("result", {}).get("events") or []:
        assert row.pop("run") == run_id
        if row["result"] is not None:
            row["result"] = str(row["result"])
    return rep


class TestCodecSelection:
    def test_unknown_codec_rejected(self, tmp_path):
        bank, expected = corpus_bank(tmp_path)
        sha = bank.manifest(expected["runs"]["rtcf"]).segments[0].sha256
        blob = b"RTXF" + bank.read_segment_blob(sha)[4:]
        with pytest.raises(TraceFormatError):
            segment_columns(blob, ["name"])
        with pytest.raises(TraceFormatError):
            decode_segment(blob)

    def test_manifest_format_key_only_for_v2(self, tmp_path):
        bank, expected = corpus_bank(tmp_path)
        assert "format" not in bank.manifest(expected["runs"]["rtbf"]).codec
        assert bank.manifest(expected["runs"]["rtcf"]).codec["format"] == "v2"
        for label in LABELS:
            m = bank.manifest(expected["runs"][label])
            blobs = [bank.read_segment_blob(s.sha256) for s in m.segments]
            assert all(columnar.is_columnar(b) == (label == "rtcf") for b in blobs)

    def test_same_bundle_under_both_codecs_is_two_runs(self, tmp_path):
        bank, expected = corpus_bank(tmp_path)
        m1, m2 = (bank.manifest(expected["runs"][label]) for label in LABELS)
        assert m1.run_id != m2.run_id
        assert m1.n_events == m2.n_events
        assert not set(m1.segment_shas()) & set(m2.segment_shas())


class TestMaintenance:
    def test_verify_checks_both_codecs(self, tmp_path):
        bank, _expected = corpus_bank(tmp_path)
        report = bank.verify(jobs=2)
        assert report["ok"], report["errors"]
        assert report["runs"] == 2
        assert report["segments_checked"] == 8
        assert report["orphan_segments"] == []

    def test_verify_flags_corrupt_v2_segment(self, tmp_path):
        bank, expected = corpus_bank(tmp_path)
        sha = bank.manifest(expected["runs"]["rtcf"]).segments[0].sha256
        path = bank.segment_path(sha)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        report = bank.verify()
        assert not report["ok"]
        assert any(e["sha256"] == sha for e in report["errors"])

    def test_gc_keeps_referenced_segments_of_both_codecs(self, tmp_path):
        bank, _expected = corpus_bank(tmp_path)
        report = bank.gc(tmp_ttl_seconds=0.0)
        assert report["removed_segments"] == []
        assert report["kept_segments"] == 8
        assert bank.verify()["ok"]

    def test_gc_collects_orphaned_v2_run(self, tmp_path):
        bank, expected = corpus_bank(tmp_path)
        rtbf, rtcf = (bank.manifest(expected["runs"][label]) for label in LABELS)
        bank.manifest_path(rtcf.run_id).unlink()
        report = bank.gc(tmp_ttl_seconds=0.0)
        assert sorted(report["removed_segments"]) == sorted(rtcf.segment_shas())
        assert bank.verify()["ok"]
        assert set(rtbf.segment_shas()) == set(bank.disk_segments())


class TestCrossCodecIdentity:
    @pytest.mark.parametrize(
        "query", CORPUS_QUERIES, ids=lambda q: canonical_json(q.echo())[:48]
    )
    def test_reports_identical_across_codecs_and_jobs(self, tmp_path, query):
        bank, expected = corpus_bank(tmp_path)
        index = CORPUS_QUERIES.index(query)
        got = {}
        for label in LABELS:
            run_id = expected["runs"][label]
            want = expected["reports"][label]["queries"][index]
            for jobs in (1, 3):
                rep = run_query(bank, replace(query, runs=(run_id,)), jobs=jobs)
                assert canonical_json(rep) == canonical_json(want), (label, jobs)
            got[label] = normalized(rep, run_id)
        assert canonical_json(got["rtbf"]) == canonical_json(got["rtcf"])

    def test_dfg_identical_across_codecs(self, tmp_path):
        bank, expected = corpus_bank(tmp_path)
        graphs = {}
        for label in LABELS:
            run_id = expected["runs"][label]
            for jobs in (1, 3):
                rep = build_dfg(bank, Query.create(runs=[run_id]), jobs=jobs)
                want = expected["reports"][label]["dfg"]
                assert canonical_json(rep) == canonical_json(want), (label, jobs)
            graphs[label] = rep["graph"]
        assert canonical_json(graphs["rtbf"]) == canonical_json(graphs["rtcf"])

    def test_cold_and_warm_manifest_cache_agree(self, tmp_path):
        bank, expected = corpus_bank(tmp_path)
        q = Query.create(agg="ops", runs=[expected["runs"]["rtcf"]])
        warm = run_query(bank, q)
        warm_again = run_query(bank, q)
        (bank.root / "index.json").unlink()
        cold = run_query(TraceBank(bank.root, create=False), q)
        assert canonical_json(cold) == canonical_json(warm) == canonical_json(warm_again)

    def test_load_run_bundle_lossless_for_v2(self, tmp_path):
        bank, expected = corpus_bank(tmp_path)
        want = corpus_bundle()
        for label in LABELS:
            got = bank.load_run_bundle(expected["runs"][label])
            assert canonical_json(bundle_json(got)) == canonical_json(
                expected["reports"][label]["bundle"]
            )
            assert sorted(got.files) == sorted(want.files)
        got = bank.load_run_bundle(expected["runs"]["rtcf"])
        for rank in want.files:
            assert got.files[rank].events == want.files[rank].events

    def test_pushdown_prunes_but_never_changes_answers(self, tmp_path):
        # A name filter no segment summary lists prunes every shard of
        # both runs before any read; the reports keep the scan shapes
        # (zero matches, full shard accounting).
        bank, expected = corpus_bank(tmp_path)
        q = Query.create(agg="bytes", names=["never_recorded"])
        a, b = (
            run_query(bank, replace(q, runs=(expected["runs"][label],)))
            for label in LABELS
        )
        a["query"]["runs"] = b["query"]["runs"] = None
        assert canonical_json(a) == canonical_json(b)
        assert b["scan"]["events_matched"] == 0
        assert b["scan"]["segments_pruned"] == b["scan"]["segments_total"] == 4

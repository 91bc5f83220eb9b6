"""The legacy corpus archive, and archives that still hold RTCF runs.

``corpus/`` holds one run as commit 3190e05 archived it, in RTBF, the
only segment format read or written; ingest still writes those files
byte for byte, and verify, gc, queries, DFGs and bundle loads on it give
the committed reports at any job count.  An archive written when the
columnar RTCF format could still be chosen may also hold RTCF runs.
RTCF is no longer read, so such a segment is archive corruption that
names the last commit that reads it: verify reports it, gc keeps it
while a manifest names it, a read fails with one ``error:`` line, and
``obs diagnose`` lists the run as unreadable and diagnoses the rest.
"""

import json
import re
from dataclasses import replace

import pytest

from storeutil import (
    CORPUS,
    CORPUS_QUERIES,
    bundle_json,
    corpus_bank,
    corpus_bundle,
    plant_rtcf_run,
)

from repro.cli import main
from repro.errors import StoreCorruptionError, TraceFormatError
from repro.obs.metrics import canonical_json
from repro.store.bank import TraceBank
from repro.store.dfg import build_dfg
from repro.store.query import Query, run_query
from repro.store.segments import decode_segment, segment_columns

#: What every read of an RTCF segment says.
RTCF_ERROR = r"RTCF.*bf847e2"


def _files(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestCorpusBytes:
    def test_ingest_writes_the_committed_files(self, tmp_path):
        # Any change to RTBF segment bytes, manifests or run ids fails
        # here instead of quietly orphaning the runs of old archives.
        bank = TraceBank(tmp_path / "store")
        result = bank.ingest_bundle(corpus_bundle())
        assert result.run_id == (
            "fdfe97a1e0022f61cf39f545e99407db756ed86bd8b82c3541b0ed1e0de2c9ce"
        )
        written, committed = _files(bank.root), _files(CORPUS / "archive")
        assert sorted(written) == sorted(committed)  # names first, then bytes
        assert len([name for name in written if name.endswith(".seg")]) == 4
        assert written == committed


class TestCodecSelection:
    def test_unknown_codec_rejected(self, tmp_path):
        bank, expected = corpus_bank(tmp_path)
        sha = bank.manifest(expected["runs"]["rtbf"]).segments[0].sha256
        blob = b"RTXF" + bank.read_segment_blob(sha)[4:]
        with pytest.raises(TraceFormatError, match="bad magic"):
            segment_columns(blob, ["name"])
        with pytest.raises(TraceFormatError, match="bad magic"):
            decode_segment(blob)

    def test_rtcf_segment_names_the_last_reader(self, tmp_path):
        bank, _expected = corpus_bank(tmp_path)
        run_id, sha = plant_rtcf_run(bank)
        blob = bank.read_segment_blob(sha)
        with pytest.raises(TraceFormatError, match=RTCF_ERROR):
            segment_columns(blob, ["name"])
        with pytest.raises(TraceFormatError, match=RTCF_ERROR):
            decode_segment(blob)
        with pytest.raises(StoreCorruptionError, match=sha[:12] + ".*" + RTCF_ERROR):
            bank.read_columns(sha, ["name"])
        with pytest.raises(StoreCorruptionError, match=RTCF_ERROR):
            bank.load_run_bundle(bank.manifest(run_id))


class TestMaintenance:
    def test_verify_checks_both_codecs(self, tmp_path):
        bank, _expected = corpus_bank(tmp_path)
        report = bank.verify(jobs=2)
        assert report["ok"], report["errors"]
        assert report["runs"] == 1
        assert report["segments_checked"] == 4
        assert report["orphan_segments"] == []
        run_id, _sha = plant_rtcf_run(bank)
        report = bank.verify(jobs=2)
        assert (report["runs"], report["segments_checked"]) == (2, 5)
        assert [e["run_id"] for e in report["errors"]] == [run_id]

    def test_verify_flags_corrupt_v2_segment(self, tmp_path):
        bank, _expected = corpus_bank(tmp_path)
        run_id, sha = plant_rtcf_run(bank)
        for jobs in (1, 2):
            report = bank.verify(jobs=jobs)
            assert not report["ok"]
            assert [(e["run_id"], e["sha256"]) for e in report["errors"]] == [
                (run_id, sha)
            ]
            assert report["errors"][0]["error"].startswith(
                "undecodable: legacy columnar (RTCF) segment"
            )
            assert "bf847e2" in report["errors"][0]["error"]

    def test_gc_keeps_referenced_segments_of_both_codecs(self, tmp_path):
        bank, _expected = corpus_bank(tmp_path)
        report = bank.gc(tmp_ttl_seconds=0.0)
        assert report["removed_segments"] == []
        assert report["kept_segments"] == 4
        assert bank.verify()["ok"]
        _run_id, sha = plant_rtcf_run(bank)
        report = bank.gc(tmp_ttl_seconds=0.0)
        assert report["removed_segments"] == []
        assert report["kept_segments"] == 5
        assert bank.segment_path(sha).is_file()

    def test_gc_collects_orphaned_v2_run(self, tmp_path):
        bank, expected = corpus_bank(tmp_path)
        rtbf = bank.manifest(expected["runs"]["rtbf"])
        run_id, sha = plant_rtcf_run(bank)
        bank.manifest_path(run_id).unlink()
        report = bank.gc(tmp_ttl_seconds=0.0)
        assert report["removed_segments"] == [sha]
        assert bank.verify()["ok"]
        assert set(rtbf.segment_shas()) == set(bank.disk_segments())


class TestCrossCodecIdentity:
    """The corpus run's reports are the committed ones at any job count."""

    @pytest.mark.parametrize(
        "query", CORPUS_QUERIES, ids=lambda q: canonical_json(q.echo())[:48]
    )
    def test_reports_identical_across_codecs_and_jobs(self, tmp_path, query):
        bank, expected = corpus_bank(tmp_path)
        index = CORPUS_QUERIES.index(query)
        run_id = expected["runs"]["rtbf"]
        want = expected["reports"]["rtbf"]["queries"][index]
        for jobs in (1, 3):
            rep = run_query(bank, replace(query, runs=(run_id,)), jobs=jobs)
            assert canonical_json(rep) == canonical_json(want), jobs

    def test_dfg_identical_across_codecs(self, tmp_path):
        bank, expected = corpus_bank(tmp_path)
        run_id = expected["runs"]["rtbf"]
        for jobs in (1, 3):
            rep = build_dfg(bank, Query.create(runs=[run_id]), jobs=jobs)
            want = expected["reports"]["rtbf"]["dfg"]
            assert canonical_json(rep) == canonical_json(want), jobs

    def test_load_run_bundle_lossless_for_v2(self, tmp_path):
        bank, expected = corpus_bank(tmp_path)
        want = corpus_bundle()
        got = bank.load_run_bundle(bank.manifest(expected["runs"]["rtbf"]))
        assert canonical_json(bundle_json(got)) == canonical_json(
            expected["reports"]["rtbf"]["bundle"]
        )
        assert sorted(got.files) == sorted(want.files)
        # Every event comes back except one field: RTBF stores results as
        # text and re-parses the numeric-looking string "42" as an int.
        want.files[1].events[5] = want.files[1].events[5].with_fields(result=42)
        for rank in want.files:
            assert got.files[rank].events == want.files[rank].events

    def test_pushdown_prunes_but_never_changes_answers(self, tmp_path):
        # A name filter no segment summary lists prunes every shard before
        # any read — so even an RTCF segment, which no read accepts, is
        # answered for; the reports keep the scan shapes (zero matches,
        # full shard accounting).
        bank, expected = corpus_bank(tmp_path)
        q = Query.create(agg="bytes", names=["never_recorded"])
        rep = run_query(bank, replace(q, runs=(expected["runs"]["rtbf"],)))
        assert rep["scan"]["events_matched"] == 0
        assert rep["scan"]["segments_pruned"] == rep["scan"]["segments_total"] == 4
        plant_rtcf_run(bank)
        rep = run_query(bank, q, jobs=2)
        assert rep["scan"]["events_matched"] == 0
        assert rep["scan"]["segments_pruned"] == rep["scan"]["segments_total"] == 5


class TestRtcfCli:
    """Archive commands meet an RTCF run with one ``error:`` line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["store", "query", "--store", "{store}"],
            ["store", "query", "--store", "{store}", "--jobs", "2", "--json"],
            ["store", "dfg", "--store", "{store}", "--runs", "{run}"],
            ["zoo", "replay", "--store", "{store}", "{run}"],
        ],
        ids=["query", "query-jobs2", "dfg", "zoo-replay"],
    )
    def test_reads_exit_1_with_one_error_line(self, tmp_path, capfd, argv):
        bank, _expected = corpus_bank(tmp_path)
        run_id, _sha = plant_rtcf_run(bank)
        argv = [a.format(store=bank.root, run=run_id) for a in argv]
        assert main(argv) == 1
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: ")
        assert "RTCF" in err and "bf847e2" in err
        assert "Traceback" not in err

    def test_verify_lists_the_segment(self, tmp_path, capfd):
        bank, _expected = corpus_bank(tmp_path)
        run_id, sha = plant_rtcf_run(bank)
        assert main(["store", "verify", "--store", str(bank.root)]) == 1
        out, err = capfd.readouterr()
        assert out.splitlines()[0] == "verified 2 run(s), 5 segment(s): CORRUPT"
        assert out.splitlines()[1].startswith(
            "  %s %s: undecodable: legacy columnar (RTCF)" % (run_id[:12], sha[:12])
        )
        assert "bf847e2" in out
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_diagnose_reports_the_run_it_cannot_read(self, tmp_path, capfd, jobs):
        # The RTBF run is diagnosed; the RTCF run is listed, not fatal.
        bank, expected = corpus_bank(tmp_path)
        run_id, sha = plant_rtcf_run(bank)
        argv = ["obs", "diagnose", "--store", str(bank.root), "--jobs", str(jobs)]
        assert main(argv + ["--json"]) == 1
        out, err = capfd.readouterr()
        assert err == ""
        report = json.loads(out)
        assert [r["run_id"] for r in report["runs"]] == [expected["runs"]["rtbf"]]
        (bad,) = report["unreadable"]
        assert bad["run_id"] == run_id
        assert re.search(sha[:12] + ".*" + RTCF_ERROR, bad["error"])
        assert report["summary"]["runs"] == 1
        assert report["summary"]["unreadable"] == 1
        assert all(run_id not in g["members"] for g in report["groups"])
        assert all(run_id not in c["members"] for c in report["clusters"])
        assert main(argv) == 1
        out, err = capfd.readouterr()
        assert "unreadable: %s: segment %s" % (run_id[:12], sha[:12]) in out
        assert "Traceback" not in out + err

"""TraceBank ingest/dedup/verify/gc behavior (the archive's core contract)."""

import pytest

from storeutil import make_bundle, make_trace_file

from repro.errors import StoreCorruptionError, StoreError, StoreNotFound
from repro.faults.corrupt import bit_flip
from repro.store.bank import TraceBank, render_store_summary
from repro.store.manifest import RunManifest
from repro.store.query import run_columns


@pytest.fixture
def bank(tmp_path):
    return TraceBank(tmp_path / "store")


class TestIngest:
    def test_ingest_reports_shape(self, bank):
        r = bank.ingest_bundle(make_bundle(nranks=3, n=4))
        assert r.segments == 3
        assert r.new_segments == 3
        assert r.deduped_segments == 0
        assert r.events == 12
        assert r.manifest_new

    def test_reingest_dedups_everything(self, bank):
        bundle = make_bundle()
        first = bank.ingest_bundle(bundle)
        second = bank.ingest_bundle(bundle)
        assert second.run_id == first.run_id
        assert second.new_segments == 0
        assert second.deduped_segments == second.segments == first.segments
        assert not second.manifest_new
        assert len(bank.run_ids()) == 1
        assert len(bank.disk_segments()) == first.segments

    def test_different_meta_is_a_different_run_sharing_segments(self, bank):
        bundle = make_bundle()
        a = bank.ingest_bundle(bundle, meta={"tag": "a"})
        b = bank.ingest_bundle(bundle, meta={"tag": "b"})
        assert a.run_id != b.run_id
        assert b.new_segments == 0  # same bytes, shared on disk
        assert len(bank.run_ids()) == 2
        assert len(bank.disk_segments()) == a.segments

    def test_ingest_trace_file_single_segment(self, bank):
        r = bank.ingest_trace_file(make_trace_file(rank=5))
        m = bank.manifest(r.run_id)
        assert [s.rank for s in m.segments] == [5]
        assert m.meta.get("framework") == "lanl-trace"

    def test_run_id_is_location_independent(self, tmp_path):
        bundle = make_bundle()
        a = TraceBank(tmp_path / "a").ingest_bundle(bundle)
        b = TraceBank(tmp_path / "b").ingest_bundle(bundle)
        assert a.run_id == b.run_id


class TestReads:
    def test_load_run_bundle_roundtrip(self, bank):
        bundle = make_bundle(nranks=2, n=5)
        r = bank.ingest_bundle(bundle)
        out = bank.load_run_bundle(bank.manifest(r.run_id))
        assert sorted(out.files) == [0, 1]
        for rank in (0, 1):
            assert out.files[rank].events == bundle.files[rank].events

    def test_manifest_prefix_lookup(self, bank):
        r = bank.ingest_bundle(make_bundle())
        assert bank.manifest(r.run_id[:8]).run_id == r.run_id
        with pytest.raises(StoreError):
            bank.manifest("zzzz")

    def test_run_columns_rank_major(self, bank):
        r = bank.ingest_bundle(make_bundle(nranks=2, n=3))
        segments = run_columns(bank, bank.manifest(r.run_id))
        ranks = [rank for rank, _sha, cols in segments for _name in cols["name"]]
        assert ranks == [0, 0, 0, 1, 1, 1]

    def test_each_segment_read_hashes_once(self, bank, monkeypatch):
        import repro.store.bank as bank_mod
        import repro.store.segments as segments_mod

        r = bank.ingest_bundle(make_bundle(nranks=3, n=4))
        m = bank.manifest(r.run_id)
        shas = [s.sha256 for s in m.segments]
        calls = []
        real = segments_mod.content_address

        def counting(blob):
            calls.append(len(blob))
            return real(blob)

        monkeypatch.setattr(segments_mod, "content_address", counting)
        monkeypatch.setattr(bank_mod, "content_address", counting)
        reads = (
            lambda: bank.read_segment(shas[0]),
            lambda: bank.read_records(shas[0]),
            lambda: bank.load_run_bundle(m),
            lambda: run_columns(bank, m),
        )
        for read, segments_read in zip(reads, (1, 1, 3, 3)):
            del calls[:]
            read()
            assert len(calls) == segments_read

    def test_corrupt_segment_reads_are_store_corruption(self, bank):
        from repro.store.segments import content_address

        r = bank.ingest_bundle(make_bundle(nranks=1, n=4))
        sha = bank.manifest(r.run_id).segments[0].sha256
        path = bank.segment_path(sha)
        path.write_bytes(bit_flip(path.read_bytes(), 40))
        bad = b"RTBF not a trace at all"
        bad_sha = content_address(bad)
        bank.segment_path(bad_sha).parent.mkdir(parents=True, exist_ok=True)
        bank.segment_path(bad_sha).write_bytes(bad)
        for target in (sha, bad_sha):  # hash mismatch, then undecodable
            with pytest.raises(StoreCorruptionError):
                bank.read_segment(target)
            with pytest.raises(StoreCorruptionError):
                bank.read_records(target)

    def test_stats_and_summary_render(self, bank):
        bank.ingest_bundle(make_bundle(nranks=2, n=4))
        stats = bank.stats()
        assert stats["runs"] == 1
        assert stats["events"] == 8
        assert stats["segments_unique"] == 2
        assert stats["orphan_segments"] == 0
        text = render_store_summary(stats)
        assert "1 run(s)" in text

    def test_create_false_requires_marker(self, tmp_path):
        with pytest.raises(StoreNotFound):
            TraceBank(tmp_path / "nope", create=False)
        TraceBank(tmp_path / "yes")  # materialize
        TraceBank(tmp_path / "yes", create=False)  # now fine


class TestVerify:
    def test_clean_archive_verifies(self, bank):
        bank.ingest_bundle(make_bundle())
        report = bank.verify()
        assert report["ok"]
        assert report["segments_checked"] == 2
        assert report["errors"] == []

    def test_bit_flip_detected(self, bank):
        r = bank.ingest_bundle(make_bundle())
        sha = bank.manifest(r.run_id).segments[0].sha256
        path = bank.segment_path(sha)
        path.write_bytes(bit_flip(path.read_bytes(), 7))
        report = bank.verify()
        assert not report["ok"]
        assert any(e["error"] == "content hash mismatch" for e in report["errors"])

    def test_missing_segment_detected(self, bank):
        r = bank.ingest_bundle(make_bundle())
        bank.segment_path(bank.manifest(r.run_id).segments[1].sha256).unlink()
        report = bank.verify()
        assert not report["ok"]
        assert any("missing" in e["error"] for e in report["errors"])

    def test_summary_drift_detected(self, bank):
        r = bank.ingest_bundle(make_bundle())
        mpath = bank.manifest_path(r.run_id)
        m = RunManifest.loads(mpath.read_text("utf-8"))
        drifted = m.segments[0].to_json()
        drifted["n_events"] += 1
        body = m.to_json()
        body["segments"][0] = drifted
        mpath.write_text(RunManifest.from_json(body).dumps())
        report = bank.verify()
        assert not report["ok"]
        assert any("drift" in e["error"] for e in report["errors"])

    def test_corrupt_manifest_reported_not_raised(self, bank):
        bank.ingest_bundle(make_bundle())
        (bank.manifests_dir / "deadbeef.json").write_text("{not json")
        report = bank.verify()
        assert not report["ok"]
        assert any("unreadable" in e["error"] for e in report["errors"])

    def test_verify_parallel_matches_serial(self, bank):
        bank.ingest_bundle(make_bundle(nranks=4))
        assert bank.verify(jobs=1) == bank.verify(jobs=3)


class TestGC:
    def test_gc_noop_on_clean_archive(self, bank):
        bank.ingest_bundle(make_bundle())
        report = bank.gc()
        assert report["removed_segments"] == []
        assert report["kept_segments"] == 2

    def test_dropping_a_run_then_gc_reclaims(self, bank):
        keep = bank.ingest_bundle(make_bundle(n=4))
        drop = bank.ingest_bundle(make_bundle(n=6))
        bank.manifest_path(drop.run_id).unlink()
        # ttl=0: no live writer in this test, reclaim fresh orphans now.
        dry = bank.gc(dry_run=True, tmp_ttl_seconds=0.0)
        assert len(dry["removed_segments"]) == 2
        assert len(bank.disk_segments()) == 4  # dry run deleted nothing
        report = bank.gc(tmp_ttl_seconds=0.0)
        assert sorted(report["removed_segments"]) == sorted(dry["removed_segments"])
        assert len(bank.disk_segments()) == 2
        assert bank.verify()["ok"]
        assert bank.run_ids() == [keep.run_id]

    def test_gc_keeps_shared_segments(self, bank):
        bundle = make_bundle()
        bank.ingest_bundle(bundle, meta={"tag": "a"})
        drop = bank.ingest_bundle(bundle, meta={"tag": "b"})
        bank.manifest_path(drop.run_id).unlink()
        report = bank.gc()
        assert report["removed_segments"] == []  # still referenced by run "a"


class TestStoreMarker:
    def test_non_store_json_rejected(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / "STORE.json").write_text('{"schema": "something/else"}')
        with pytest.raises(StoreError):
            TraceBank(root)

    def test_corrupt_marker_rejected(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / "STORE.json").write_text("not json")
        with pytest.raises(StoreCorruptionError):
            TraceBank(root)

"""verify/gc vs in-flight atomic writes: ``*.tmp`` files are not damage.

A concurrent ingest lands each segment/manifest through ``mkstemp`` +
``os.replace``; between those two steps a ``*.tmp`` file exists in the
archive.  ``verify`` must stay clean (the entry is not corruption),
``gc`` must never unlink a *fresh* tmp (it could be a live writer), and
a *stale* tmp — the residue of a crashed writer — must eventually be
reclaimed.
"""

import os

import pytest

from repro.errors import StoreError
from repro.store.bank import TraceBank
from storeutil import make_bundle


def _plant_tmps(bank):
    seg_shard = bank.segments_dir / "ab"
    seg_shard.mkdir(parents=True, exist_ok=True)
    seg_tmp = seg_shard / "tmp_inflight.tmp"
    seg_tmp.write_bytes(b"partial segment bytes")
    man_tmp = bank.manifests_dir / "tmp_inflight.tmp"
    man_tmp.write_bytes(b'{"half": ')
    return seg_tmp, man_tmp


class TestVerifyWithInFlightTmp:
    def test_verify_clean_and_counts_tmp(self, tmp_path):
        bank = TraceBank(tmp_path / "bank")
        bank.ingest_bundle(make_bundle())
        _plant_tmps(bank)
        report = bank.verify()
        assert report["ok"], report["errors"]
        assert report["orphan_segments"] == []
        assert report["in_flight_tmp"] == 2

    def test_tmp_invisible_to_disk_listing_and_stats(self, tmp_path):
        bank = TraceBank(tmp_path / "bank")
        result = bank.ingest_bundle(make_bundle())
        _plant_tmps(bank)
        assert len(bank.disk_segments()) == result.segments
        assert bank.stats()["orphan_segments"] == 0


class TestGcWithInFlightTmp:
    def test_fresh_tmp_survives_gc(self, tmp_path):
        bank = TraceBank(tmp_path / "bank")
        bank.ingest_bundle(make_bundle())
        seg_tmp, man_tmp = _plant_tmps(bank)
        report = bank.gc()
        assert report["removed_segments"] == []
        assert report["removed_tmp_files"] == []
        assert seg_tmp.exists() and man_tmp.exists()

    def test_stale_tmp_reclaimed(self, tmp_path):
        bank = TraceBank(tmp_path / "bank")
        bank.ingest_bundle(make_bundle())
        seg_tmp, man_tmp = _plant_tmps(bank)
        ancient = 1_000_000.0
        for p in (seg_tmp, man_tmp):
            os.utime(p, (ancient, ancient))
        dry = bank.gc(dry_run=True)
        assert len(dry["removed_tmp_files"]) == 2
        assert seg_tmp.exists() and man_tmp.exists()
        report = bank.gc()
        assert sorted(report["removed_tmp_files"]) == sorted(dry["removed_tmp_files"])
        assert not seg_tmp.exists() and not man_tmp.exists()
        assert bank.verify()["in_flight_tmp"] == 0

    def test_tmp_ttl_zero_reclaims_immediately(self, tmp_path):
        bank = TraceBank(tmp_path / "bank")
        bank.ingest_bundle(make_bundle())
        seg_tmp, _ = _plant_tmps(bank)
        report = bank.gc(tmp_ttl_seconds=0.0)
        assert len(report["removed_tmp_files"]) == 2
        assert not seg_tmp.exists()

    def test_gc_keeps_live_segments_with_tmp_present(self, tmp_path):
        bank = TraceBank(tmp_path / "bank")
        result = bank.ingest_bundle(make_bundle())
        _plant_tmps(bank)
        report = bank.gc(tmp_ttl_seconds=0.0)
        assert report["removed_segments"] == []
        assert report["kept_segments"] == result.segments
        assert bank.verify()["ok"]


class TestGcFreshSegmentGrace:
    """An unreferenced ``.seg`` may belong to an in-flight ingest whose
    manifest has not landed yet; default gc must grant it the same
    ``tmp_ttl_seconds`` grace as tmp files."""

    def test_fresh_unreferenced_segment_survives_default_gc(self, tmp_path):
        bank = TraceBank(tmp_path / "bank")
        drop = bank.ingest_bundle(make_bundle())
        bank.manifest_path(drop.run_id).unlink()
        report = bank.gc()
        assert report["removed_segments"] == []
        assert report["kept_fresh_segments"] == 2
        assert len(bank.disk_segments()) == 2

    def test_aged_unreferenced_segment_is_reclaimed(self, tmp_path):
        bank = TraceBank(tmp_path / "bank")
        drop = bank.ingest_bundle(make_bundle())
        bank.manifest_path(drop.run_id).unlink()
        ancient = 1_000_000.0
        for sha in bank.disk_segments():
            os.utime(bank.segment_path(sha), (ancient, ancient))
        report = bank.gc()
        assert len(report["removed_segments"]) == 2
        assert report["kept_fresh_segments"] == 0
        assert bank.disk_segments() == []
        assert bank.verify()["ok"]

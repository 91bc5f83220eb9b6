"""Query engine tests: filters, aggregates, pushdown, and determinism."""

import pytest

from storeutil import make_bundle, make_event

from repro.errors import StoreQueryError
from repro.obs.metrics import canonical_json
from repro.store.bank import TraceBank
from repro.store.query import Query, run_query, scan_events
from repro.trace.records import TraceBundle, TraceFile


@pytest.fixture
def bank(tmp_path):
    """Two runs: a 2-rank write run and a 1-rank read run, distinct metadata."""
    bank = TraceBank(tmp_path / "store")
    bank.ingest_bundle(make_bundle(nranks=2, n=8), meta={"kind": "sweep", "tag": "w"})
    reads = TraceBundle(
        files={
            0: TraceFile(
                [make_event(name="SYS_read", ts=10.0 + i * 0.01, rank=0,
                            path="/pfs/in", nbytes=1024)
                 for i in range(4)],
                rank=0,
                framework="tracefs",
            )
        },
        metadata={"framework": "tracefs"},
    )
    bank.ingest_bundle(reads, meta={"kind": "sweep", "tag": "r"})
    return bank


class TestFilters:
    def test_unfiltered_counts_everything(self, bank):
        report = run_query(bank, Query(agg="ops"))
        assert report["scan"]["events_matched"] == 20
        assert report["result"]["ops"]["SYS_write"]["calls"] == 16
        assert report["result"]["ops"]["SYS_read"]["calls"] == 4

    def test_rank_filter_prunes_segments(self, bank):
        report = run_query(bank, Query.create(agg="ops", ranks=[1]))
        assert report["scan"]["segments_pruned"] == 2  # rank-0 shards skipped
        assert report["scan"]["segments_scanned"] == 1
        assert report["result"]["ops"] == {
            "SYS_write": {"calls": 8, "total_time": pytest.approx(0.008)}
        }

    def test_name_filter_uses_pushdown(self, bank):
        report = run_query(bank, Query.create(agg="ops", names=["SYS_read"]))
        assert report["scan"]["segments_scanned"] == 1
        assert list(report["result"]["ops"]) == ["SYS_read"]

    def test_time_window_half_open(self, bank):
        report = run_query(bank, Query.create(agg="ops", since=10.0, until=10.02))
        assert report["scan"]["events_matched"] == 2

    def test_path_glob(self, bank):
        report = run_query(bank, Query.create(agg="ops", path_glob="/pfs/in*"))
        assert report["scan"]["events_matched"] == 4

    def test_layer_filter(self, bank):
        report = run_query(bank, Query.create(agg="ops", layers=["vfs"]))
        assert report["scan"]["events_matched"] == 0
        assert report["scan"]["segments_scanned"] == 0  # all pruned

    def test_where_selects_runs(self, bank):
        report = run_query(bank, Query.create(agg="ops", where={"tag": "r"}))
        assert report["scan"]["runs_selected"] == 1
        assert list(report["result"]["ops"]) == ["SYS_read"]

    def test_where_dotted_key(self, bank):
        report = run_query(
            bank, Query.create(agg="ops", where={"framework": "tracefs"})
        )
        assert report["scan"]["runs_selected"] == 1

    def test_runs_prefix_selection(self, bank):
        run_id = bank.run_ids()[0]
        report = run_query(bank, Query.create(agg="ops", runs=[run_id[:10]]))
        assert report["scan"]["runs_selected"] == 1


class TestAggregates:
    def test_events_rows_globally_ordered(self, bank):
        rows = scan_events(bank, Query())
        stamps = [r["timestamp"] for r in rows]
        assert stamps == sorted(stamps)
        assert rows[0]["name"] == "SYS_write"
        assert rows[-1]["name"] == "SYS_read"

    def test_events_limit_truncates_after_ordering(self, bank):
        report = run_query(bank, Query(agg="events", limit=3))
        assert len(report["result"]["events"]) == 3
        assert report["result"]["truncated"] is True
        full = scan_events(bank, Query())
        assert report["result"]["events"] == full[:3]

    def test_bytes_by_rank(self, bank):
        report = run_query(bank, Query(agg="bytes"))
        ranks = report["result"]["ranks"]
        # rank 0 appears in both runs: 8*4096 + 4*1024 bytes.
        assert ranks["0"] == {"events": 12, "bytes": 8 * 4096 + 4 * 1024}
        assert ranks["1"] == {"events": 8, "bytes": 8 * 4096}
        assert report["result"]["total_bytes"] == 16 * 4096 + 4 * 1024

    def test_bandwidth_buckets(self, bank):
        report = run_query(bank, Query.create(agg="bandwidth", window=0.05,
                                              names=["SYS_read"]))
        buckets = report["result"]["buckets"]
        assert buckets[0]["t0"] <= 10.0 < buckets[0]["t1"] + 1e-9
        assert sum(b["bytes"] for b in buckets) == 4 * 1024
        for b in buckets:
            assert b["bandwidth"] == pytest.approx(b["bytes"] / 0.05)

    def test_ops_totals_match_event_durations(self, bank):
        report = run_query(bank, Query(agg="ops"))
        ops = report["result"]["ops"]
        assert ops["SYS_write"]["total_time"] == pytest.approx(16 * 0.001)


class TestDeterminism:
    def test_jobs_do_not_change_bytes(self, bank):
        for agg in ("events", "ops", "bytes", "bandwidth"):
            q = Query(agg=agg)
            serial = canonical_json(run_query(bank, q, jobs=1))
            parallel = canonical_json(run_query(bank, q, jobs=4))
            assert serial == parallel, agg

    def test_report_is_canonical_json_clean(self, bank):
        import json

        report = run_query(bank, Query(agg="ops"))
        assert json.loads(canonical_json(report)) == report


class TestValidation:
    def test_unknown_aggregate(self, bank):
        with pytest.raises(StoreQueryError):
            run_query(bank, Query(agg="median"))

    def test_bad_window(self, bank):
        with pytest.raises(StoreQueryError):
            run_query(bank, Query(agg="bandwidth", window=0.0))

    def test_empty_time_window(self, bank):
        with pytest.raises(StoreQueryError):
            run_query(bank, Query(since=5.0, until=5.0))

    def test_negative_limit(self, bank):
        with pytest.raises(StoreQueryError):
            run_query(bank, Query(agg="events", limit=-1))

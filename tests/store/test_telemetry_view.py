"""telemetry_view: archived TraceBank runs as diffable telemetry payloads."""

import pytest

from storeutil import make_bundle

from repro.errors import StoreError
from repro.obs.compare import compare_payloads
from repro.obs.critpath import critical_path, flamegraph_lines
from repro.obs.metrics import canonical_json
from repro.obs.perfetto import validate_chrome_trace
from repro.store.bank import TraceBank
from repro.store.query import telemetry_view


@pytest.fixture
def bank(tmp_path):
    return TraceBank(tmp_path / "store")


class TestTelemetryView:
    def test_view_is_a_valid_payload(self, bank):
        run_id = bank.ingest_bundle(make_bundle(nranks=2, n=8)).run_id
        payload = telemetry_view(bank, run_id)
        assert payload["schema"] == "repro/telemetry/v1"
        validate_chrome_trace(payload["trace"])
        assert payload["source"] == {"kind": "store", "run_id": run_id}
        counters = payload["metrics"]["counters"]
        assert counters["os.calls.syscall"] == 16
        assert counters["os.syscall.SYS_write"] == 16
        hists = payload["metrics"]["histograms"]
        assert hists["os.call_seconds"]["count"] == 16
        assert hists["os.io_request_bytes"]["count"] == 16

    def test_prefix_addressing_and_unknown_prefix(self, bank):
        run_id = bank.ingest_bundle(make_bundle()).run_id
        assert telemetry_view(bank, run_id[:8]) == telemetry_view(bank, run_id)
        with pytest.raises(StoreError):
            telemetry_view(bank, "zzzzzzzz")

    def test_view_is_deterministic(self, bank):
        run_id = bank.ingest_bundle(make_bundle(nranks=3, n=4)).run_id
        assert canonical_json(telemetry_view(bank, run_id)) == canonical_json(
            telemetry_view(bank, run_id)
        )

    def test_views_feed_the_observatory(self, bank):
        small = bank.ingest_bundle(make_bundle(nranks=2, n=4)).run_id
        large = bank.ingest_bundle(make_bundle(nranks=2, n=8)).run_id
        diff = compare_payloads(
            telemetry_view(bank, small), telemetry_view(bank, large)
        )
        assert diff["a"]["n_spans"] == 8
        assert diff["b"]["n_spans"] == 16
        rows = {r["name"]: r for r in diff["counters"]}
        assert rows["os.calls.syscall"]["delta"] == 8
        report = critical_path(telemetry_view(bank, large))
        assert report["straggler"] is not None
        assert report["layers"].get("simfs", 0.0) > 0.0  # SYS_write data path
        assert flamegraph_lines(telemetry_view(bank, large))

    def test_each_rank_gets_its_own_track(self, bank):
        run_id = bank.ingest_bundle(make_bundle(nranks=3, n=2)).run_id
        report = critical_path(telemetry_view(bank, run_id))
        assert len(report["tracks"]) == 3
        assert sorted(t["rank"] for t in report["tracks"]) == [0, 1, 2]
        for t in report["tracks"]:
            assert "host%02d" % t["rank"] in t["track"]

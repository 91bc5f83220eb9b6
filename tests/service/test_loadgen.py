"""The deterministic load generator: plan purity + a live end-to-end run.

The plan (which client sends which bytes where, in what order) must be a
pure function of the parameters — that is what makes BENCH_service.json
comparable across commits.  The end-to-end test then runs a small plan
against a real in-process server and checks the bench report's shape and
the dedup the shared payload pool was designed to provoke.
"""

import json

import pytest

from repro.errors import ServiceError
from repro.service.loadgen import build_plan, make_payload, run_loadgen, write_bench
from repro.service.tenants import TenantRegistry
from serviceutil import ServerThread


class TestPlanDeterminism:
    def test_same_seed_same_plan(self):
        a = build_plan(clients=20, requests_per_client=5, seed=42)
        b = build_plan(clients=20, requests_per_client=5, seed=42)
        assert a.ops == b.ops
        assert a.payloads == b.payloads
        assert a.tenants == b.tenants

    def test_different_seed_different_plan(self):
        a = build_plan(clients=20, requests_per_client=5, seed=1)
        b = build_plan(clients=20, requests_per_client=5, seed=2)
        assert a.ops != b.ops

    def test_payloads_deterministic_and_distinct(self):
        assert make_payload(3) == make_payload(3)
        assert make_payload(3) != make_payload(4)

    def test_every_client_opens_with_an_ingest(self):
        plan = build_plan(clients=10, requests_per_client=4, seed=9)
        assert all(ops[0][0] == "ingest" for ops in plan.ops)
        assert plan.total_requests == 40

    def test_bad_parameters_rejected(self):
        with pytest.raises(ServiceError):
            build_plan(clients=0)


class TestLoadgenEndToEnd:
    def test_small_run_reports_and_dedups(self, tmp_path):
        root = tmp_path / "svc"
        plan = build_plan(
            clients=12, requests_per_client=4, tenants=3,
            payload_pool=4, seed=11, payload_events=16,
        )
        with ServerThread(root, queue_capacity=64) as srv:
            result = run_loadgen(srv.host, srv.port, plan)
        assert result.errors == 0
        assert result.requests == plan.total_requests
        # 4 distinct payloads over >= 12 ingests: dedup must show up.
        assert result.dedup_ratio is not None and result.dedup_ratio > 1.0
        report = write_bench(result, str(tmp_path / "BENCH_service.json"))
        on_disk = json.loads((tmp_path / "BENCH_service.json").read_text())
        assert on_disk == report
        assert report["schema"] == "repro/service/bench/v1"
        assert report["req_per_sec"] > 0
        assert report["latency_p99_ms"] >= report["latency_p50_ms"] >= 0
        assert sum(int(v) for v in report["status_counts"].values()) == (
            result.requests
        )
        # The archive the run left behind is verifiable.
        reg = TenantRegistry(root, create=False)
        assert reg.verify()["ok"]
        assert reg.list_tenants() == ["tenant00", "tenant01", "tenant02"]

    def test_backpressure_retries_when_queue_tiny(self, tmp_path):
        root = tmp_path / "svc"
        plan = build_plan(
            clients=16, requests_per_client=3, tenants=2,
            payload_pool=2, ingest_fraction=1.0, seed=5, payload_events=16,
        )
        with ServerThread(root, queue_capacity=1) as srv:
            result = run_loadgen(srv.host, srv.port, plan)
        # With a one-slot queue some 429s are expected; every one must
        # have been retried to completion, never surfaced as an error.
        assert result.errors == 0
        reg = TenantRegistry(root, create=False)
        assert reg.verify()["ok"]
        stats = reg.stats()
        assert stats["runs"] >= 2  # both tenants landed their runs

"""Live observability surface of the service: tracing, prom, access log.

Everything here runs against a real server on a background thread
(``ServerThread``): trace-context propagation from a client-sent
``traceparent`` header down to the commit worker's bank spans, the
Prometheus exposition, the canonical JSONL access log, the slowest-trace
exemplar endpoints, and the two CLI entry points (``repro obs top`` /
``repro obs reqtrace``) driven through ``main()``.
"""

import asyncio
import json
import time

import pytest

from repro.cli import main
from repro.obs.perfetto import validate_chrome_trace
from repro.obs.prom import parse_prometheus
from repro.obs.reqtrace import make_context, parse_traceparent
from repro.service.loadgen import build_plan, run_loadgen
from repro.trace.binary_format import encode_trace_file
from serviceutil import ServerThread, http_json, http_request
from storeutil import make_trace_file


def _body(rank=0, n=16, name="SYS_write"):
    return encode_trace_file(make_trace_file(rank=rank, n=n, name=name))


def _traced_ingest(srv, ctx, tenant="alice", rank=0):
    return http_request(
        srv.host, srv.port, "POST",
        "/v1/t/%s/ingest?rank=%d" % (tenant, rank), _body(rank=rank),
        headers={"Traceparent": ctx.header()},
    )


def _poll_trace(srv, trace_id, want_track="bank", timeout=10.0):
    """Fetch /v1/traces/<id> until the async commit spans have attached."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, _h, payload = http_request(
            srv.host, srv.port, "GET", "/v1/traces/%s" % trace_id
        )
        if status == 200:
            report = json.loads(payload)
            if any(s["track"] == want_track for s in report["spans"]):
                return report
        time.sleep(0.02)
    raise AssertionError("trace %s never grew a %s span" % (trace_id, want_track))


class TestMetricsEndpoint:
    def test_end_time_is_real_uptime(self, tmp_path):
        with ServerThread(tmp_path / "svc") as srv:
            http_json(srv.host, srv.port, "GET", "/healthz")
            time.sleep(0.05)
            _s, _h, metrics = http_json(srv.host, srv.port, "GET", "/v1/metrics")
            assert metrics["end_time"] > 0.0
            # Monotone across polls — it is an uptime, not a constant.
            time.sleep(0.05)
            _s, _h, later = http_json(srv.host, srv.port, "GET", "/v1/metrics")
            assert later["end_time"] > metrics["end_time"]

    def test_queue_depth_time_weighted_mean_nonzero_after_traffic(self, tmp_path):
        with ServerThread(tmp_path / "svc") as srv:
            # Park the commit workers so accepted uploads hold depth > 0
            # for a real, measurable interval.
            async def install_gate():
                srv.app.commit_gate = asyncio.Event()

            srv.run_coro(install_gate())
            status, _h, _p = _traced_ingest(srv, make_context("t"))
            assert status == 202
            time.sleep(0.2)
            # A read request samples the (still nonzero) depth.
            http_json(srv.host, srv.port, "GET", "/v1/stats")
            srv.call_soon(lambda: srv.app.commit_gate.set())
            deadline = time.time() + 10
            while time.time() < deadline:
                _s, _h, health = http_json(srv.host, srv.port, "GET", "/healthz")
                if health["queue_depth"] == 0:
                    break
                time.sleep(0.02)
            _s, _h, text = http_request(
                srv.host, srv.port, "GET", "/v1/metrics?format=prom"
            )
            parsed = parse_prometheus(text.decode("utf-8"))
            by_name = {s["name"]: s["value"] for s in parsed["samples"]}
            assert by_name["repro_service_queue_depth_mean"] > 0.0
            assert by_name["repro_end_time_seconds"] > 0.0

    def test_prom_format_parses_with_content_type(self, tmp_path):
        with ServerThread(tmp_path / "svc") as srv:
            status, _h, _p = _traced_ingest(srv, make_context("x"))
            assert status == 202
            status, headers, payload = http_request(
                srv.host, srv.port, "GET", "/v1/metrics?format=prom"
            )
            assert status == 200
            assert headers["content-type"].startswith("text/plain; version=0.0.4")
            parsed = parse_prometheus(payload.decode("utf-8"))
            names = {s["name"] for s in parsed["samples"]}
            assert "repro_service_requests_total" in names
            assert "repro_service_route_seconds_bucket" in names


class TestTracePropagation:
    def test_client_trace_id_adopted_and_crosses_all_tracks(self, tmp_path):
        with ServerThread(tmp_path / "svc") as srv:
            ctx = make_context("repro-loadgen", 7, 0, 0)
            status, headers, _p = _traced_ingest(srv, ctx)
            assert status == 202
            # The response echoes the adopted context.
            echoed = parse_traceparent(headers["traceparent"])
            assert echoed is not None and echoed.trace_id == ctx.trace_id
            report = _poll_trace(srv, ctx.trace_id)
            tracks = [s["track"] for s in report["spans"]]
            assert set(tracks) == {"client", "http", "wal", "commit", "bank"}
            # The synthesized client envelope carries the client's span id.
            client = report["spans"][0]
            assert client["span_id"] == ctx.span_id
            # Explicit parent links chain wal -> commit -> bank.
            by_name = {s["name"]: s for s in report["spans"]}
            assert by_name["commit"]["parent_span_id"] == \
                by_name["wal.append"]["span_id"]
            assert by_name["bank.ingest"]["parent_span_id"] == \
                by_name["commit"]["span_id"]

    def test_rejected_ingest_keeps_its_route(self, tmp_path):
        # A 429'd upload raises out of the handler; the trace/metrics/log
        # must still attribute it to "ingest", not "other".
        with ServerThread(tmp_path / "svc", queue_capacity=1) as srv:
            async def install_gate():
                srv.app.commit_gate = asyncio.Event()

            srv.run_coro(install_gate())
            statuses = []
            for i in range(3):
                ctx = make_context("busy", i)
                statuses.append(_traced_ingest(srv, ctx, rank=i)[0])
            assert 429 in statuses
            rejected = make_context("busy", statuses.index(429))
            trace = srv.app.traces.get(rejected.trace_id)
            assert trace is not None and trace.route == "ingest"
            assert trace.status == 429
            srv.call_soon(lambda: srv.app.commit_gate.set())

    def test_malformed_traceparent_gets_server_side_ids(self, tmp_path):
        with ServerThread(tmp_path / "svc") as srv:
            status, headers, _p = http_request(
                srv.host, srv.port, "POST", "/v1/t/alice/ingest", _body(),
                headers={"Traceparent": "garbage"},
            )
            assert status == 202
            assert parse_traceparent(headers["traceparent"]) is not None

    def test_slowest_listing_and_trace_fetch(self, tmp_path):
        with ServerThread(tmp_path / "svc") as srv:
            ids = []
            for i in range(3):
                ctx = make_context("slow", i)
                ids.append(ctx.trace_id)
                assert _traced_ingest(srv, ctx, rank=i)[0] == 202
            _s, _h, body = http_json(
                srv.host, srv.port, "GET", "/v1/traces/slowest?route=ingest"
            )
            walls = [s["wall_us"] for s in body["slowest"]]
            assert walls == sorted(walls, reverse=True)
            assert {s["trace_id"] for s in body["slowest"]} <= set(ids)
            assert body["ring"]["finished"] >= 3
            status, _h, _p = http_request(
                srv.host, srv.port, "GET",
                "/v1/traces/%s" % body["slowest"][0]["trace_id"],
            )
            assert status == 200

    def test_unknown_trace_404(self, tmp_path):
        with ServerThread(tmp_path / "svc") as srv:
            status, _h, err = http_json(
                srv.host, srv.port, "GET", "/v1/traces/%s" % ("f" * 32)
            )
            assert status == 404
            assert "no retained trace" in err["error"]["message"]


class TestAccessLog:
    def test_one_canonical_line_per_request(self, tmp_path):
        log = tmp_path / "access.jsonl"
        sent = []
        with ServerThread(tmp_path / "svc", access_log=str(log)) as srv:
            for i in range(4):
                ctx = make_context("log", i)
                sent.append(ctx.trace_id)
                assert _traced_ingest(srv, ctx, rank=i)[0] == 202
            http_json(srv.host, srv.port, "GET", "/v1/t/alice/runs")
            served = srv.app.access_lines
        lines = log.read_text("utf-8").splitlines()
        assert len(lines) == served == 5
        records = [json.loads(line) for line in lines]
        # Byte-identical field ordering: every line, same canonical keys.
        keys = [list(r.keys()) for r in records]
        assert all(k == keys[0] for k in keys)
        assert keys[0] == sorted(keys[0])
        assert keys[0] == [
            "bytes_in", "bytes_out", "method", "path", "queue_depth",
            "route", "status", "tenant", "trace_id", "ts", "wall_us",
        ]
        # Every ingest line carries the client-sent trace id.
        logged = [r["trace_id"] for r in records if r["route"] == "ingest"]
        assert logged == sent
        for r in records:
            assert r["status"] in (200, 202)
            assert r["wall_us"] > 0
            assert r["ts"] > 0


class TestLoadgenJoin:
    def test_routes_breakdown_and_deterministic_id_join(self, tmp_path):
        plan = build_plan(
            clients=6, requests_per_client=4, tenants=2,
            payload_pool=4, seed=11, payload_events=16,
        )
        planned_ids = {
            make_context("repro-loadgen", plan.seed, c, op).trace_id
            for c in range(len(plan.ops))
            for op in range(len(plan.ops[c]))
        }
        with ServerThread(tmp_path / "svc") as srv:
            result = run_loadgen(srv.host, srv.port, plan)
            report = result.report()
            assert report["requests"] == plan.total_requests
            assert set(report["routes"]) <= {"ingest", "query", "runs", "dfg"}
            assert "ingest" in report["routes"]
            for route, stats in report["routes"].items():
                assert stats["requests"] > 0
                assert stats["latency_p99_ms"] >= stats["latency_p50_ms"] >= 0
                assert sum(stats["status_counts"].values()) == stats["requests"]
            # Server-side exemplars carry exactly the ids the plan dealt.
            _s, _h, body = http_json(
                srv.host, srv.port, "GET", "/v1/traces/slowest"
            )
            assert body["slowest"], "no exemplars retained after load"
            for summary in body["slowest"]:
                assert summary["trace_id"] in planned_ids


class TestObsCli:
    def test_obs_top_once_renders_dashboard(self, tmp_path, capsys):
        with ServerThread(tmp_path / "svc") as srv:
            assert _traced_ingest(srv, make_context("top"))[0] == 202
            url = "http://%s:%d" % (srv.host, srv.port)
            assert main(["obs", "top", "--url", url, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro service" in out
        assert "ingest" in out
        assert "queue" in out

    def test_obs_reqtrace_slowest_flame_and_perfetto(self, tmp_path, capsys):
        flame = tmp_path / "slow.flame"
        perfetto = tmp_path / "slow.json"
        with ServerThread(tmp_path / "svc") as srv:
            ctx = make_context("cli", 0)
            assert _traced_ingest(srv, ctx)[0] == 202
            _poll_trace(srv, ctx.trace_id)  # wait for commit spans
            url = "http://%s:%d" % (srv.host, srv.port)
            assert main([
                "obs", "reqtrace", "slowest", "--route", "ingest",
                "--url", url,
                "--flame", str(flame), "--perfetto", str(perfetto),
            ]) == 0
        out = capsys.readouterr().out
        assert "tracks crossed: client -> http -> wal -> commit -> bank" in out
        stacks = flame.read_text("utf-8").splitlines()
        assert stacks and all(line.rsplit(" ", 1)[1].isdigit() for line in stacks)
        chrome = json.loads(perfetto.read_text("utf-8"))
        validate_chrome_trace(chrome)  # raises on failure

    def test_obs_reqtrace_unknown_id_fails_cleanly(self, tmp_path, capsys):
        with ServerThread(tmp_path / "svc") as srv:
            url = "http://%s:%d" % (srv.host, srv.port)
            rc = main(["obs", "reqtrace", "e" * 32, "--url", url])
            assert rc != 0

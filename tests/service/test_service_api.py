"""ServiceApp routing + handlers, exercised without any sockets.

Every test builds the app, runs one coroutine per request through
``app.handle`` and asserts on the typed :class:`Response` — the HTTP
server is a separate, thinner layer with its own fault tests.  The
centrepiece is the byte-identity contract: a service query body must
equal ``repro store query --json`` output over the same namespace.
"""

import asyncio
import json
from urllib.parse import urlencode

import pytest
from hypothesis import given, strategies as st

from repro.errors import StoreQueryError
from repro.obs.metrics import canonical_json
from repro.service.api import Request, ServiceApp, query_from_params
from repro.service.server import parse_qs
from repro.store.bank import TraceBank
from repro.store.query import Query, run_query
from repro.trace.binary_format import encode_trace_file
from storeutil import make_trace_file


def _body(rank=0, n=16, name="SYS_write"):
    return encode_trace_file(make_trace_file(rank=rank, n=n, name=name))


def _run(app, *requests):
    """Drive the app through startup, the requests, and shutdown."""

    async def main():
        await app.startup()
        try:
            return [await app.handle(r) for r in requests]
        finally:
            await app.shutdown()

    return asyncio.run(main())


def _ingest_req(tenant, body, sync=True, extra=""):
    target_params = {"rank": ["0"]}
    if sync:
        target_params["sync"] = ["1"]
    for piece in extra.split("&"):
        if piece:
            k, _, v = piece.partition("=")
            target_params.setdefault(k, []).append(v)
    return Request("POST", "/v1/t/%s/ingest" % tenant, target_params, {}, body)


class TestRouting:
    def test_healthz(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        (resp,) = _run(app, Request("GET", "/healthz"))
        assert resp.status == 200
        assert json.loads(resp.body)["ok"] is True

    def test_unknown_route_404(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        (resp,) = _run(app, Request("GET", "/v2/nope"))
        assert resp.status == 404
        assert json.loads(resp.body)["error"]["type"] == "NotFound"

    def test_wrong_method_405(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        r1 = Request("GET", "/v1/t/alice/ingest")
        r2 = Request("POST", "/v1/t/alice/query")
        resp1, resp2 = _run(app, r1, r2)
        assert resp1.status == 405 and resp2.status == 405

    def test_bad_tenant_name_400(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        (resp,) = _run(app, _ingest_req("Bad..Name", _body()))
        assert resp.status == 400
        assert json.loads(resp.body)["error"]["type"] == "TenantNameError"

    def test_unknown_tenant_read_404(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        (resp,) = _run(app, Request("GET", "/v1/t/ghost/query"))
        assert resp.status == 404


class TestIngest:
    def test_sync_ingest_returns_result(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        (resp,) = _run(app, _ingest_req("alice", _body()))
        assert resp.status == 200
        result = json.loads(resp.body)
        assert result["manifest_new"] is True
        assert result["new_segments"] == result["segments"] == 1
        assert result["events"] == 16

    def test_sync_reingest_dedups(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        body = _body()
        r1, r2 = _run(app, _ingest_req("alice", body), _ingest_req("alice", body))
        a, b = json.loads(r1.body), json.loads(r2.body)
        assert a["run_id"] == b["run_id"]
        assert b["new_segments"] == 0 and b["manifest_new"] is False

    def test_async_ingest_202_then_committed(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")

        async def main():
            await app.startup()
            resp = await app.handle(_ingest_req("alice", _body(), sync=False))
            assert resp.status == 202
            await app.queue.queue.join()
            runs = await app.handle(Request("GET", "/v1/t/alice/runs"))
            await app.shutdown()
            return resp, runs

        resp, runs = asyncio.run(main())
        assert json.loads(resp.body)["accepted"].endswith("-alice")
        assert len(json.loads(runs.body)["runs"]) == 1

    def test_corrupt_body_400_and_nothing_persisted(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        (resp,) = _run(app, _ingest_req("alice", b"\x00garbage\xff" * 10))
        assert resp.status == 400
        bank = TraceBank(tmp_path / "svc" / "tenants" / "alice", create=False)
        assert bank.manifests() == []
        assert list((tmp_path / "svc" / "wal").glob("*.wal")) == []
        assert app.queue.depth == 0

    def test_oversize_body_413(self, tmp_path):
        app = ServiceApp(tmp_path / "svc", max_body_bytes=64)
        (resp,) = _run(app, _ingest_req("alice", _body()))
        assert resp.status == 413
        assert app.queue.depth == 0

    def test_ingest_meta_queryable(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        req = _ingest_req("alice", _body(), extra="meta.experiment=x1")
        query = Request(
            "GET", "/v1/t/alice/query",
            {"agg": ["ops"], "where.experiment": ["x1"]},
        )
        miss = Request(
            "GET", "/v1/t/alice/query",
            {"agg": ["ops"], "where.experiment": ["x2"]},
        )
        _resp, hit, missed = _run(app, req, query, miss)
        assert json.loads(hit.body)["scan"]["runs_selected"] == 1
        assert json.loads(missed.body)["scan"]["runs_selected"] == 0


class TestQueryByteIdentity:
    def test_query_body_equals_cli_json(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        reqs = [
            _ingest_req("alice", _body(rank=0, name="SYS_write")),
            _ingest_req("alice", _body(rank=1, name="SYS_read")),
            Request("GET", "/v1/t/alice/query", {"agg": ["ops"]}),
            Request(
                "GET", "/v1/t/alice/query",
                {"agg": ["bandwidth"], "ranks": ["0,1"], "window": ["0.1"]},
            ),
        ]
        _a, _b, ops_resp, bw_resp = _run(app, *reqs)
        bank = TraceBank(tmp_path / "svc" / "tenants" / "alice", create=False)
        want_ops = canonical_json(run_query(bank, Query.create(agg="ops"))) + "\n"
        assert ops_resp.body == want_ops.encode()
        want_bw = canonical_json(
            run_query(bank, Query.create(agg="bandwidth", ranks=[0, 1], window=0.1))
        ) + "\n"
        assert bw_resp.body == want_bw.encode()

    def test_bad_query_param_400(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        reqs = [
            _ingest_req("alice", _body()),
            Request("GET", "/v1/t/alice/query", {"agg": ["bogus"]}),
            Request("GET", "/v1/t/alice/query", {"ranks": ["not-an-int"]}),
        ]
        _i, bad_agg, bad_rank = _run(app, *reqs)
        assert bad_agg.status == 400 and bad_rank.status == 400

    def test_dfg_served(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        reqs = [
            _ingest_req("alice", _body()),
            Request("GET", "/v1/t/alice/dfg", {}),
        ]
        _i, dfg = _run(app, *reqs)
        assert dfg.status == 200
        assert "dfg" in json.loads(dfg.body)["schema"]


class TestQueryFromParams:
    def test_mirrors_cli_flags(self):
        q = query_from_params(
            {
                "agg": ["bytes"],
                "ranks": ["0,2", "5"],
                "ops": ["SYS_write"],
                "layers": ["syscall"],
                "path_glob": ["/pfs/*"],
                "since": ["0.5"],
                "until": ["2.5"],
                "where.kind": ["service"],
                "runs": ["abc"],
                "window": ["0.1"],
                "limit": ["9"],
            }
        )
        want = Query.create(
            agg="bytes", ranks=[0, 2, 5], names=["SYS_write"],
            layers=["syscall"], path_glob="/pfs/*", since=0.5, until=2.5,
            where={"kind": "service"}, runs=["abc"], window=0.1, limit=9,
        )
        assert q == want

    def test_bad_values_typed_errors(self):
        with pytest.raises(StoreQueryError):
            query_from_params({"since": ["soon"]})
        with pytest.raises(StoreQueryError):
            query_from_params({"limit": ["many"]})


# The server splits values on commas (``ops=a,b`` is two ops), so the
# round trip holds for non-empty values without one.
_VALUE = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=","),
    min_size=1,
)
_FLOAT = st.floats(allow_nan=False)


@st.composite
def _queries(draw):
    return Query.create(
        agg=draw(_VALUE),
        ranks=draw(st.lists(st.integers(), max_size=4)),
        names=draw(st.lists(_VALUE, max_size=3)),
        layers=draw(st.lists(_VALUE, max_size=3)),
        path_glob=draw(st.none() | _VALUE),
        since=draw(st.none() | _FLOAT),
        until=draw(st.none() | _FLOAT),
        where=draw(st.dictionaries(_VALUE, _VALUE, max_size=3)),
        runs=draw(st.lists(_VALUE, max_size=3)),
        window=draw(_FLOAT),
        limit=draw(st.none() | st.integers()),
    )


class TestQueryParamsRoundTrip:
    @given(_queries())
    def test_from_params_inverts_to_params(self, query):
        params = parse_qs(urlencode(query.to_params()))
        assert Query.from_params(params) == query
        assert query_from_params(params) == query

    @pytest.mark.parametrize("field", ["names", "layers", "runs"])
    def test_a_value_with_a_comma_is_refused(self, field):
        query = Query.create(**{field: ["SYS_write,SYS_read"]})
        with pytest.raises(StoreQueryError, match="'SYS_write,SYS_read' holds a comma"):
            query.to_params()


class TestStatsAndMetrics:
    def test_stats_include_queue_and_dedup(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        body = _body()
        reqs = [
            _ingest_req("alice", body),
            _ingest_req("bob", body),
            Request("GET", "/v1/stats"),
        ]
        _a, _b, stats_resp = _run(app, *reqs)
        stats = json.loads(stats_resp.body)
        assert stats["tenants"] == 2
        assert stats["dedup_ratio"] > 1.5
        assert stats["queue"]["committed"] == 2

    def test_metrics_count_requests(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        _run(app, Request("GET", "/healthz"), Request("GET", "/v1/metrics"))
        snap = app.metrics.snapshot(end_time=0.0)
        assert snap["counters"]["service.requests"] >= 2
        assert snap["counters"]["service.route.healthz"] == 1

    def test_tenants_listing(self, tmp_path):
        app = ServiceApp(tmp_path / "svc")
        reqs = [_ingest_req("alice", _body()), Request("GET", "/v1/tenants")]
        _i, listing = _run(app, *reqs)
        assert json.loads(listing.body)["tenants"] == ["alice"]

"""Transport faults against a live server: the store must stay clean.

Each scenario misbehaves at the socket level — vanishing mid-upload,
sending corrupt bytes, overfilling the ingest queue — and then audits
the aftermath: ``verify`` clean across every namespace, no orphan
manifests, no surviving WAL entries for rejected requests, queue slots
all returned.
"""

import json
import time

from repro.service.tenants import TenantRegistry
from repro.trace.binary_format import encode_trace_file
from serviceutil import ServerThread, http_json, http_request, raw_socket
from storeutil import make_trace_file


def _body(rank=0, n=16):
    return encode_trace_file(make_trace_file(rank=rank, n=n))


def _audit(store_root):
    """Service-wide verify + the WAL dir contents."""
    reg = TenantRegistry(store_root, create=False)
    report = reg.verify()
    wal = sorted((reg.root / "wal").glob("*.wal"))
    return report, wal


class TestClientDisconnect:
    def test_mid_stream_disconnect_leaves_store_clean(self, tmp_path):
        root = tmp_path / "svc"
        with ServerThread(root) as srv:
            sock = raw_socket(srv.host, srv.port)
            head = (
                "POST /v1/t/alice/ingest HTTP/1.1\r\nHost: x\r\n"
                "Content-Length: 100000\r\n\r\n"
            ).encode()
            sock.sendall(head + b"\x00" * 512)  # a fraction of the body
            sock.close()
            # A good request right after proves the server survived.
            status, _h, payload = http_json(
                srv.host, srv.port, "GET", "/healthz"
            )
            assert status == 200 and payload["ok"]
        report, wal = _audit(root)
        assert report["ok"]
        assert wal == []
        # The tenant was never created: the request never completed.
        assert "alice" not in report["namespaces"]

    def test_abrupt_close_between_requests_is_clean(self, tmp_path):
        root = tmp_path / "svc"
        with ServerThread(root) as srv:
            status, _h, result = http_json(
                srv.host, srv.port, "POST",
                "/v1/t/alice/ingest?sync=1&rank=0", _body(),
            )
            assert status == 200
            sock = raw_socket(srv.host, srv.port)
            sock.close()  # connect-then-vanish
            status, _h, runs = http_json(
                srv.host, srv.port, "GET", "/v1/t/alice/runs"
            )
            assert status == 200 and len(runs["runs"]) == 1
        report, wal = _audit(root)
        assert report["ok"] and wal == []


class TestCorruptUploads:
    def test_corrupt_binary_body_typed_400(self, tmp_path):
        root = tmp_path / "svc"
        good = _body()
        corrupt = good[:-7] + b"\xff" * 7  # checksum breakage at the tail
        with ServerThread(root) as srv:
            status, _h, err = http_json(
                srv.host, srv.port, "POST",
                "/v1/t/alice/ingest?sync=1", corrupt,
            )
            assert status == 400
            assert "error" in err
        report, wal = _audit(root)
        assert report["ok"] and wal == []
        for ns, rep in report["namespaces"].items():
            assert rep["runs"] == 0, "orphan manifest in %s" % ns

    def test_truncated_binary_body_typed_400(self, tmp_path):
        root = tmp_path / "svc"
        with ServerThread(root) as srv:
            status, _h, _err = http_json(
                srv.host, srv.port, "POST",
                "/v1/t/alice/ingest?sync=1", _body()[:40],
            )
            assert status == 400
        report, wal = _audit(root)
        assert report["ok"] and wal == []

    def test_empty_body_typed_400(self, tmp_path):
        root = tmp_path / "svc"
        with ServerThread(root) as srv:
            status, _h, _err = http_json(
                srv.host, srv.port, "POST", "/v1/t/alice/ingest?sync=1", b""
            )
            assert status == 400
        report, wal = _audit(root)
        assert report["ok"] and wal == []

    def test_oversize_body_refused_before_read(self, tmp_path):
        root = tmp_path / "svc"
        with ServerThread(root, max_body_bytes=1024) as srv:
            status, _h, _payload = http_request(
                srv.host, srv.port, "POST",
                "/v1/t/alice/ingest?sync=1", b"x" * 4096,
            )
            assert status == 413
        report, wal = _audit(root)
        assert report["ok"] and wal == []


class TestQueueFull:
    def test_429_with_retry_after_and_bounded_wal(self, tmp_path):
        root = tmp_path / "svc"
        capacity = 2
        with ServerThread(root, queue_capacity=capacity) as srv:
            # Park the commit workers so the queue can only fill.
            async def install_gate():
                import asyncio

                srv.app.commit_gate = asyncio.Event()

            srv.run_coro(install_gate())
            body = _body()
            statuses = []
            for i in range(capacity + 2):
                status, headers, _payload = http_request(
                    srv.host, srv.port, "POST",
                    "/v1/t/alice/ingest?rank=%d" % i, body,
                )
                statuses.append((status, headers))
            accepted = [s for s, _ in statuses if s == 202]
            rejected = [(s, h) for s, h in statuses if s == 429]
            assert len(accepted) == capacity
            assert len(rejected) == 2
            for _s, headers in rejected:
                assert float(headers["retry-after"]) > 0
            # Bounded disk/memory: never more WAL entries than capacity.
            wal_now = sorted((root / "wal").glob("*.wal"))
            assert len(wal_now) == capacity
            # Open the gate; everything accepted must commit.
            srv.call_soon(lambda: srv.app.commit_gate.set())
            deadline = time.time() + 10
            while time.time() < deadline:
                _s, _h, health = http_json(srv.host, srv.port, "GET", "/healthz")
                if health["queue_depth"] == 0:
                    break
                time.sleep(0.05)
            assert health["queue_depth"] == 0
            _s, _h, runs = http_json(
                srv.host, srv.port, "GET", "/v1/t/alice/runs"
            )
            assert len(runs["runs"]) == capacity
        report, wal = _audit(root)
        assert report["ok"] and wal == []


class TestPathDecoding:
    def test_plus_in_path_is_not_a_space(self, tmp_path):
        # "+" means space only in query strings; the path must keep it.
        with ServerThread(tmp_path / "svc") as srv:
            status, _h, err = http_json(
                srv.host, srv.port, "GET", "/no+such+route"
            )
            assert status == 404
            assert err["error"]["message"] == "no route /no+such+route"

    def test_percent_decoding_still_applies_to_path(self, tmp_path):
        with ServerThread(tmp_path / "svc") as srv:
            status, _h, err = http_json(
                srv.host, srv.port, "GET", "/no%20such"
            )
            assert status == 404
            assert err["error"]["message"] == "no route /no such"


class TestWalRecovery:
    def test_startup_replays_valid_and_discards_torn(self, tmp_path):
        root = tmp_path / "svc"
        body = _body()
        # First life: accept an upload whose commit never happens.
        with ServerThread(root, queue_capacity=4) as srv:
            async def install_gate():
                import asyncio

                srv.app.commit_gate = asyncio.Event()

            srv.run_coro(install_gate())
            status, _h, _p = http_request(
                srv.host, srv.port, "POST", "/v1/t/alice/ingest", body
            )
            assert status == 202
        # The context exit stops the server without draining; the WAL
        # entry survives the "crash".
        wal = sorted((root / "wal").glob("*.wal"))
        assert len(wal) == 1
        # Plant a torn sibling next to it.
        torn = root / "wal" / "99999999-alice.wal"
        torn.write_bytes(b'{"schema": "repro/service/wal/v1"')
        # Second life: recovery commits the good entry, drops the torn one.
        with ServerThread(root) as srv:
            deadline = time.time() + 10
            runs = []
            while time.time() < deadline:
                status, _h, listing = http_json(
                    srv.host, srv.port, "GET", "/v1/t/alice/runs"
                )
                runs = listing["runs"] if status == 200 else []
                if runs:
                    break
                time.sleep(0.05)
            assert len(runs) == 1
        report, wal = _audit(root)
        assert report["ok"]
        assert wal == []
        assert not torn.exists()

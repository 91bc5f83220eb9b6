"""IngestQueue unit regressions: WAL seq allocation and commit faults.

``write_wal`` runs in executor threads — one per concurrent upload — so
sequence numbers must be race-free: a duplicate seq means a duplicate
WAL path, and the second atomic write would silently overwrite the
first durably-acked entry.  And a *transient* commit failure (ENOSPC,
EMFILE) must leave the entry in the WAL for restart recovery, never
discard a durably-acked upload.
"""

import asyncio
import hashlib
import json
import struct
import threading

import pytest

from repro.errors import TraceError
from repro.service import Request, ServiceApp
from repro.service.ingestq import WAL_SCHEMA, IngestQueue
from repro.trace import text_format
from repro.trace.binary_format import (
    MAX_STRING_BYTES,
    encode_event_record,
    encode_trace_file,
)
from repro.trace.checksum import frame, unframe
from repro.trace.compressio import compress
from repro.trace.records import TraceFile
from storeutil import make_trace_file


def _trace_and_body(rank=0, n=8):
    trace = make_trace_file(rank=rank, n=n)
    return trace, encode_trace_file(trace)


class TestConcurrentWalSeq:
    def test_parallel_write_wal_never_collides(self, tmp_path):
        queue = IngestQueue(tmp_path / "svc", capacity=256)
        trace, body = _trace_and_body()
        n_threads, per_thread = 8, 8
        entries = []
        errors = []
        barrier = threading.Barrier(n_threads)

        def worker():
            try:
                barrier.wait()
                for _ in range(per_thread):
                    entries.append(
                        queue.write_wal("alice", body, trace, 0, {})
                    )
            except Exception as exc:  # surfaced below, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        total = n_threads * per_thread
        entry_ids = {e.entry_id for e in entries}
        assert len(entry_ids) == total  # every upload drew a unique seq
        on_disk = sorted((tmp_path / "svc" / "wal").glob("*.wal"))
        assert len(on_disk) == total  # ...and none overwrote another

    def test_write_wal_refuses_existing_path(self, tmp_path):
        queue = IngestQueue(tmp_path / "svc", capacity=4)
        trace, body = _trace_and_body()
        clash = queue.wal_dir / ("%08d-alice.wal" % queue._seq)
        clash.write_bytes(b"pre-existing durably-acked entry")
        try:
            queue.write_wal("alice", body, trace, 0, {})
        except Exception:
            pass  # refusing is fine...
        # ...overwriting is not.
        assert clash.read_bytes() == b"pre-existing durably-acked entry"


class TestTransientCommitFailure:
    def test_oserror_defers_entry_to_recovery(self, tmp_path):
        root = tmp_path / "svc"
        trace, body = _trace_and_body()
        req = Request(
            "POST", "/v1/t/alice/ingest",
            {"rank": ["0"], "sync": ["1"]}, {}, body,
        )

        async def first_life():
            app = ServiceApp(root)
            await app.startup()
            try:
                # Every commit fails like a full disk.
                app.queue.commit = lambda entry, bank: (_ for _ in ()).throw(
                    OSError(28, "No space left on device")
                )
                return app, await app.handle(req)
            finally:
                await app.shutdown()

        app, resp = asyncio.run(first_life())
        assert resp.status == 500
        assert json.loads(resp.body)["error"]["type"] == "OSError"
        # Durably-acked entry kept for recovery, not discarded.
        assert app.queue.discarded == 0
        assert app.metrics.snapshot(end_time=0.0)["counters"][
            "service.commit.deferred"
        ] == 1
        wal = sorted((root / "wal").glob("*.wal"))
        assert len(wal) == 1

        async def second_life():
            app2 = ServiceApp(root)
            await app2.startup()
            try:
                await app2.queue.queue.join()  # recovery re-commits
                return await app2.handle(Request("GET", "/v1/t/alice/runs"))
            finally:
                await app2.shutdown()

        resp2 = asyncio.run(second_life())
        assert resp2.status == 200
        assert len(json.loads(resp2.body)["runs"]) == 1
        assert sorted((root / "wal").glob("*.wal")) == []

    def test_data_error_still_discards(self, tmp_path):
        root = tmp_path / "svc"
        trace, body = _trace_and_body()
        req = Request(
            "POST", "/v1/t/alice/ingest",
            {"rank": ["0"], "sync": ["1"]}, {}, body,
        )

        async def main():
            app = ServiceApp(root)
            await app.startup()
            try:
                app.queue.commit = lambda entry, bank: (_ for _ in ()).throw(
                    TraceError("rotted bytes")
                )
                resp = await app.handle(req)
                return app, resp
            finally:
                await app.shutdown()

        app, resp = asyncio.run(main())
        assert resp.status == 400
        assert app.queue.discarded == 1
        assert sorted((root / "wal").glob("*.wal")) == []


class TestRetiredCodecParameter:
    """Earlier releases took a segment codec per upload (``?codec=``) and
    recorded it in each WAL entry header; an unknown value was acked with
    202 and then failed every commit, so the entry stayed in the WAL
    forever.  Ingest now has one segment format and ignores both."""

    def test_ingest_with_codec_param_commits_and_empties_wal(self, tmp_path):
        root = tmp_path / "svc"
        _trace, body = _trace_and_body()
        req = Request(
            "POST", "/v1/t/alice/ingest", {"rank": ["0"], "codec": ["v3"]}, {}, body,
        )

        async def main():
            app = ServiceApp(root)
            await app.startup()
            try:
                resp = await app.handle(req)
                await app.queue.queue.join()
                runs = await app.handle(Request("GET", "/v1/t/alice/runs"))
                return app, resp, runs
            finally:
                await app.shutdown()

        app, resp, runs = asyncio.run(main())
        assert resp.status == 202
        assert app.queue.committed == 1 and app.queue.discarded == 0
        assert len(json.loads(runs.body)["runs"]) == 1
        assert sorted((root / "wal").glob("*.wal")) == []

    def test_wal_entry_with_codec_header_recovers_at_startup(self, tmp_path):
        root = tmp_path / "svc"
        _trace, body = _trace_and_body()
        header = {
            "schema": WAL_SCHEMA,
            "tenant": "alice",
            "rank": 0,
            "meta": {},
            "codec": "v3",
            "nbytes": len(body),
            "sha256": hashlib.sha256(body).hexdigest(),
        }
        (root / "wal").mkdir(parents=True)
        (root / "wal" / "00000000-alice.wal").write_bytes(
            json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body
        )

        async def main():
            app = ServiceApp(root)
            await app.startup()
            try:
                await app.queue.queue.join()
                runs = await app.handle(Request("GET", "/v1/t/alice/runs"))
                return app, runs
            finally:
                await app.shutdown()

        app, runs = asyncio.run(main())
        assert app.queue.committed == 1 and app.queue.discarded == 0
        assert len(json.loads(runs.body)["runs"]) == 1
        assert sorted((root / "wal").glob("*.wal")) == []


def _binary_body_with_args_json(raw_args: bytes) -> bytes:
    """A one-event RTBF upload whose record stores ``raw_args`` verbatim.

    The archive's own encoder always writes ASCII-escaped args JSON, but
    a client may store raw UTF-8, which ingest re-renders escaped.
    """
    tf = make_trace_file(n=1)
    event = tf.events[0].with_fields(args=())
    record = encode_event_record(event)
    assert record.endswith(b"\x02\x00[]")
    record = record[:-4] + struct.pack("<H", len(raw_args)) + raw_args
    head = encode_trace_file(TraceFile([event], hostname=tf.hostname, rank=0))
    _header, end = unframe(head, 6)
    body = struct.pack("<I", 1) + record
    return head[:end] + frame(compress(body))


def _run_uploads(root, *bodies):
    """POST each body to a fresh service; returns (app, responses, runs)."""

    async def main():
        app = ServiceApp(root)
        await app.startup()
        try:
            responses = []
            for body in bodies:
                req = Request("POST", "/v1/t/alice/ingest", {"rank": ["0"]}, {}, body)
                responses.append(await app.handle(req))
            await app.queue.queue.join()
            runs = await app.handle(Request("GET", "/v1/t/alice/runs"))
            return app, responses, json.loads(runs.body)["runs"]
        finally:
            await app.shutdown()

    return asyncio.run(main())


class TestUnencodableUploadRejected:
    """An upload the archive cannot encode (a record string over 65,535
    bytes) used to be acked 202, then failed its commit as a data error
    and was discarded: acked data silently lost.  It is now refused with
    400 before the WAL append."""

    def test_text_upload_with_overlong_path_gets_400_and_no_wal(self, tmp_path):
        root = tmp_path / "svc"
        tf = make_trace_file(n=2, path="/" + "p" * 69_999)
        body = text_format.encode_trace_file(tf).encode("utf-8")
        app, (resp,), runs = _run_uploads(root, body)
        assert resp.status == 400
        error = json.loads(resp.body)["error"]
        assert error["type"] == "TraceFormatError"
        assert "path is 70000 bytes" in error["message"]
        assert app.queue.committed == 0 and app.queue.discarded == 0
        assert runs == []
        assert sorted((root / "wal").glob("*.wal")) == []

    def test_binary_upload_whose_args_escape_past_the_limit_gets_400(self, tmp_path):
        # 30,000 "é" are 60,004 stored bytes but 180,004 escaped ones.
        root = tmp_path / "svc"
        raw = json.dumps(["é" * 30_000], ensure_ascii=False).encode("utf-8")
        assert len(raw) <= MAX_STRING_BYTES
        app, (resp,), runs = _run_uploads(root, _binary_body_with_args_json(raw))
        assert resp.status == 400
        assert "args JSON is 180004 bytes" in json.loads(resp.body)["error"]["message"]
        assert app.queue.committed == 0 and app.queue.discarded == 0
        assert runs == []
        assert sorted((root / "wal").glob("*.wal")) == []

    def test_uploads_just_under_the_limit_commit(self, tmp_path):
        root = tmp_path / "svc"
        # 21,845 three-byte code points: exactly 65,535 bytes.
        path = "€" * (MAX_STRING_BYTES // 3)
        text = text_format.encode_trace_file(make_trace_file(n=2, path=path))
        raw = json.dumps(["é" * 10_921], ensure_ascii=False).encode("utf-8")
        app, responses, runs = _run_uploads(
            root, text.encode("utf-8"), _binary_body_with_args_json(raw)
        )
        assert [r.status for r in responses] == [202, 202]
        assert app.queue.committed == 2 and app.queue.discarded == 0
        assert len(runs) == 2
        assert sorted((root / "wal").glob("*.wal")) == []


def _annotated_text_body(header_rank="0", **annotation):
    """A one-event text upload whose ``# {...}`` annotation has overrides."""
    fields = {
        "layer": "syscall", "duration": 0.001, "pid": 7, "rank": 0,
        "hostname": "node000", "user": "mpi", "path": "/pfs/out", "fd": 3,
        "nbytes": 8, "offset": 0,
    }
    fields.update(annotation)
    return (
        "## repro-trace text v1\n"
        "## hostname=node000 pid=7 rank=%s framework=t\n"
        "1.000000 SYS_write(3, 8) = 8 <0.001000>\t# %s\n"
        % (header_rank, json.dumps(fields))
    ).encode("utf-8")


class TestMistypedTextAnnotationRejected:
    """A text upload whose annotation holds a value its binary record slot
    cannot store used to be acked 202; its commit then raised
    ``struct.error``, a transient failure, so the entry failed again at
    every startup.  A mistyped string field or header rank was a 500.
    All are now refused with 400 before the WAL append."""

    @pytest.mark.parametrize(
        "body",
        [
            _annotated_text_body(pid=-1),
            _annotated_text_body(pid=2**32),
            _annotated_text_body(pid=True),
            _annotated_text_body(rank=2**31),
            _annotated_text_body(fd=1.5),
            _annotated_text_body(nbytes="x"),
            _annotated_text_body(offset=2**63),
            _annotated_text_body(hostname=5),
            _annotated_text_body(user=["mpi"]),
            _annotated_text_body(path=7),
            _annotated_text_body(header_rank="abc"),
        ],
        ids=["pid-negative", "pid-over-u32", "pid-bool", "rank-over-i32",
             "fd-float", "nbytes-str", "offset-over-i64", "hostname-int",
             "user-list", "path-int", "header-rank-str"],
    )
    def test_upload_gets_400_and_no_wal(self, tmp_path, body):
        root = tmp_path / "svc"
        app, (resp,), runs = _run_uploads(root, body)
        assert resp.status == 400
        assert json.loads(resp.body)["error"]["type"] == "TraceFormatError"
        assert app.queue.committed == 0 and app.queue.discarded == 0
        assert runs == []
        assert sorted((root / "wal").glob("*.wal")) == []

    def test_values_at_the_slot_limits_commit(self, tmp_path):
        root = tmp_path / "svc"
        body = _annotated_text_body(
            pid=2**32 - 1, rank=-(2**31), fd=None, nbytes=2**63 - 1,
            offset=-(2**63), path=None,
        )
        app, (resp,), runs = _run_uploads(root, body)
        assert resp.status == 202
        assert app.queue.committed == 1 and app.queue.discarded == 0
        assert len(runs) == 1

    def test_such_a_body_already_in_the_wal_is_discarded_at_startup(self, tmp_path):
        root = tmp_path / "svc"
        body = _annotated_text_body(pid=-1)
        header = {
            "schema": WAL_SCHEMA,
            "tenant": "alice",
            "rank": 0,
            "meta": {},
            "nbytes": len(body),
            "sha256": hashlib.sha256(body).hexdigest(),
        }
        (root / "wal").mkdir(parents=True)
        (root / "wal" / "00000000-alice.wal").write_bytes(
            json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body
        )

        async def main():
            app = ServiceApp(root)
            await app.startup()
            try:
                await app.queue.queue.join()
                return app
            finally:
                await app.shutdown()

        app = asyncio.run(main())
        assert app.queue.discarded == 1 and app.queue.committed == 0
        assert sorted((root / "wal").glob("*.wal")) == []

"""JSON nested past the recursion limit is a format error, not a crash.

A binary record's args JSON, a binary trace's header and a text line's
``# {...}`` annotation can each nest lists deeper than Python's
recursion limit while staying inside their size limits (20,001 nested
lists are 40,002 bytes, under a record string's 65,535).  The decoders
refuse them with ``TraceFormatError`` as they refuse any other damage, so
``store ingest`` and ``zoo replay`` print one ``error:`` line and the
service answers 400.

Every case nests 20,001 lists, past the limit of every supported
interpreter: ``json`` counts its nesting against
``sys.getrecursionlimit()`` (1,000 by default) on CPython 3.10 and 3.11,
but against a separate C recursion limit on 3.12 and later, which is
10,000 on Linux release builds, so 5,000 lists parse there.
"""

import asyncio
import hashlib
import json
import struct

import pytest

from storeutil import make_trace_file

from repro.cli import main
from repro.errors import TraceFormatError
from repro.service.api import Request, ServiceApp
from repro.store.bank import TraceBank
from repro.trace import binary_format, text_format
from repro.trace.checksum import frame, unframe
from repro.trace.compressio import compress
from repro.trace.decode import decode_trace_bytes
from repro.trace.records import TraceFile


def _nested(depth):
    return "[" * depth + "]" * depth


def _rtbf_args(raw):
    """A one-event RTBF trace whose record stores args JSON ``raw``."""
    event = make_trace_file(n=1).events[0].with_fields(args=())
    record = binary_format.encode_event_record(event)
    assert record.endswith(b"\x02\x00[]")
    record = record[:-4] + struct.pack("<H", len(raw)) + raw
    head = binary_format.encode_trace_file(TraceFile([event], rank=0))
    _header, end = unframe(head, 6)
    return head[:end] + frame(compress(struct.pack("<I", 1) + record))


def _rtbf_header(raw):
    """An RTBF trace whose header frame holds ``raw``."""
    return binary_format.MAGIC + struct.pack("<H", binary_format.VERSION) + frame(raw)


def _text_annotation(depth):
    """A text trace whose last annotation carries ``depth`` nested lists."""
    lines = text_format.encode_trace_file(make_trace_file(n=2)).splitlines()
    lines[-1] = lines[-1].replace("\t# {", '\t# {"x":%s,' % _nested(depth), 1)
    return ("\n".join(lines) + "\n").encode("utf-8")


# Past every supported interpreter's limit (see the module docstring).
DEPTH = 20_001
ARGS = _rtbf_args(_nested(DEPTH).encode())
BAD = {
    "rtbf-args": ARGS,
    "rtbf-header": _rtbf_header(('{"n_events":0,"x":%s}' % _nested(DEPTH)).encode()),
    "text-annotation": _text_annotation(DEPTH),
}


def test_the_nested_args_fit_a_record():
    # The record is well formed: only the depth of its args is at fault.
    assert len(_nested(DEPTH)) == 40_002 <= binary_format.MAX_STRING_BYTES
    assert binary_format.decode_trace_file(_rtbf_args(b"[[1]]")).events[0].args == ([1],)


@pytest.mark.parametrize("kind", sorted(BAD))
def test_decoders_refuse(kind):
    with pytest.raises(TraceFormatError):
        decode_trace_bytes(BAD[kind])


def test_the_args_projection_refuses():
    rows = binary_format.read_records(ARGS)
    with pytest.raises(TraceFormatError, match="corrupt args JSON"):
        binary_format.project(rows, "args")
    with pytest.raises(TraceFormatError, match="corrupt args JSON"):
        binary_format.decode_trace_file(ARGS)


def test_a_text_argument_never_nests():
    # A text argument is either a JSON string or a bare token, so the
    # scanner stops after the string: trailing brackets are extra data.
    line = '1.000000 SYS_write("a"%s, 8) = 8 <0.000001>' % ("[" * DEPTH)
    with pytest.raises(TraceFormatError, match="bad string argument"):
        text_format.decode_event(line)


@pytest.fixture
def bad_files(tmp_path):
    paths = []
    for kind, data in sorted(BAD.items()):
        path = tmp_path / kind
        path.write_bytes(data)
        paths.append(path)
    return paths


def _one_error_line(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def _snapshot(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()}


def test_store_ingest_leaves_the_archive_unchanged(bad_files, tmp_path, capsys):
    store = tmp_path / "bank"
    TraceBank(store).ingest_trace_file(make_trace_file(n=3))
    before = _snapshot(store)
    for path in bad_files:
        assert main(["store", "ingest", "--store", str(store), str(path)]) == 1
        _one_error_line(capsys)
    assert _snapshot(store) == before


def test_zoo_replay_refuses(bad_files, capsys):
    for path in bad_files:
        assert main(["zoo", "replay", str(path)]) == 1
        _one_error_line(capsys)


def test_service_ingest_answers_400(tmp_path):
    app = ServiceApp(tmp_path / "svc")

    async def run():
        await app.startup()
        try:
            return [
                await app.handle(Request("POST", "/v1/t/alice/ingest",
                                         {"rank": ["0"]}, {}, BAD[kind]))
                for kind in sorted(BAD)
            ]
        finally:
            await app.shutdown()

    for resp in asyncio.run(run()):
        assert resp.status == 400
        assert json.loads(resp.body)["error"]["type"] == "TraceFormatError"
    assert list((tmp_path / "svc" / "wal").glob("*.wal")) == []
    assert list((tmp_path / "svc").glob("tenants/*/manifests/*.json")) == []

"""Non-finite timestamps and durations are refused where traces are decoded.

NaN and infinities have no JSON rendering, so a trace holding one could
be archived but never reported on.  Both decoders refuse them (the RTBF
record walker and the text decoder), so every ingest path turns them
away before anything is written, and a segment archived before the rule
existed reads as corrupt.  Finite times whose sums overflow (an event's
end, a file's total duration) are refused where outside trace files and
uploads are decoded (``decode_trace_bytes``).
"""

import asyncio
import json
import math

import pytest

from storeutil import make_event, make_trace_file

from repro.cli import main
from repro.errors import StoreQueryError, TraceFormatError
from repro.service.api import Request, ServiceApp
from repro.store.bank import TraceBank
from repro.store.dfg import build_dfg
from repro.store.query import Query, run_query
from repro.trace import binary_format, text_format
from repro.trace.decode import decode_trace_bytes
from repro.trace.records import TraceBundle, TraceFile

BAD = [("timestamp", math.nan), ("timestamp", math.inf),
       ("timestamp", -math.inf), ("duration", math.nan),
       ("duration", math.inf)]


def _trace(field, value):
    """A three-event trace whose second event's ``field`` is ``value``."""
    tf = make_trace_file(n=3)
    tf.events[1] = tf.events[1].with_fields(**{field: value})
    return tf


def _inf_text():
    """A text trace whose last line's timestamp has 401 digits (inf)."""
    lines = text_format.encode_trace_file(make_trace_file(n=2)).splitlines()
    lines[-1] = "1" * 401 + lines[-1][lines[-1].index("."):]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("field, value", BAD)
def test_binary_decoders_refuse(field, value):
    blob = binary_format.encode_trace_file(_trace(field, value))
    for decode in (binary_format.decode_trace_file, binary_format.read_records):
        with pytest.raises(TraceFormatError, match="non-finite"):
            decode(blob)


@pytest.mark.parametrize("line", [
    _inf_text().splitlines()[-1],
    '1.5 SYS_write(3) = 1 <0.000001>\t# {"duration": NaN}',
    '1.5 SYS_write(3) = 1 <0.000001>\t# {"duration": Infinity}',
    '1.5 SYS_write(3) = 1 <0.000001>\t# {"duration": %s}' % ("9" * 400),
], ids=["401-digit-timestamp", "nan-duration", "inf-duration", "huge-int-duration"])
def test_text_decoder_refuses(line):
    with pytest.raises(TraceFormatError, match="non-finite"):
        text_format.decode_event(line)


def _overflowing():
    """Finite times whose sums are not: a trace whose second event ends
    past the largest float, and one whose durations sum past it."""
    end = make_trace_file(n=3)
    end.events[1] = end.events[1].with_fields(timestamp=1.5e308, duration=1.5e308)
    total = make_trace_file(n=3)
    for i in (0, 1):
        total.events[i] = total.events[i].with_fields(duration=1e308)
    return end, total


@pytest.fixture
def bad_files(tmp_path):
    """A text trace with an infinite timestamp and an RTBF trace with a
    NaN one; then a text trace whose end time and an RTBF trace whose
    total duration overflow."""
    text = tmp_path / "inf.trace"
    text.write_text(_inf_text())
    rtbf = tmp_path / "nan.rtb"
    rtbf.write_bytes(binary_format.encode_trace_file(_trace("timestamp", math.nan)))
    end, total = _overflowing()
    end_text = tmp_path / "end.trace"
    end_text.write_text(text_format.encode_trace_file(end))
    total_rtbf = tmp_path / "total.rtb"
    total_rtbf.write_bytes(binary_format.encode_trace_file(total))
    return [text, rtbf, end_text, total_rtbf]


def _one_error_line(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite"), err


def test_decode_refuses_overflowing_sums():
    # The walkers keep their per-record rule; the sums are checked once,
    # where outside trace files and uploads are decoded.
    end, total = _overflowing()
    end_text = text_format.encode_trace_file(end)
    total_rtbf = binary_format.encode_trace_file(total)
    text_format.decode_trace_file(end_text)
    binary_format.decode_trace_file(total_rtbf)
    with pytest.raises(TraceFormatError, match="non-finite end time: event 1's"):
        decode_trace_bytes(end_text.encode())
    with pytest.raises(TraceFormatError, match="non-finite total duration"):
        decode_trace_bytes(total_rtbf)


def test_store_ingest_archives_nothing(bad_files, tmp_path, capsys):
    store = tmp_path / "bank"
    for path in bad_files:
        assert main(["store", "ingest", "--store", str(store), str(path)]) == 1
        _one_error_line(capsys)
    assert not store.exists()


def test_zoo_replay_refuses(bad_files, capsys):
    for path in bad_files:
        assert main(["zoo", "replay", str(path)]) == 1
        _one_error_line(capsys)


@pytest.mark.parametrize("command", ["summarize", "convert", "anonymize"])
def test_trace_commands_refuse(command, bad_files, tmp_path, capsys):
    out = [] if command == "summarize" else [str(tmp_path / "out.trace")]
    for path in bad_files:
        assert main([command, str(path)] + out) == 1
        _one_error_line(capsys)
    assert not (tmp_path / "out.trace").exists()


def test_service_ingest_400_before_the_wal(bad_files, tmp_path):
    app = ServiceApp(tmp_path / "svc")

    async def run():
        await app.startup()
        try:
            return [
                await app.handle(Request("POST", "/v1/t/alice/ingest",
                                         {"rank": ["0"]}, {}, p.read_bytes()))
                for p in bad_files
            ]
        finally:
            await app.shutdown()

    for resp in asyncio.run(run()):
        assert resp.status == 400
        assert "non-finite" in json.loads(resp.body)["error"]["message"]
    assert list((tmp_path / "svc" / "wal").glob("*.wal")) == []
    assert list((tmp_path / "svc").glob("tenants/*/manifests/*.json")) == []
    assert list((tmp_path / "svc").rglob("*.seg")) == []


def test_an_archived_nan_segment_reads_as_corrupt(tmp_path, capsys):
    # Written by ingesting the events themselves, as an archive from
    # before the rule could have been: nothing decodes on that path.
    store = tmp_path / "bank"
    bundle = TraceBundle(files={0: _trace("timestamp", math.nan)})
    bank = TraceBank(store)
    sha = bank.manifest(bank.ingest_bundle(bundle).run_id).segments[0].sha256
    for argv in (["query", "--agg", "events", "--json"],
                 ["query", "--agg", "bandwidth"], ["query"], ["dfg"]):
        assert main(["store"] + argv + ["--store", str(store)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: segment %s fails to decode: non-finite"
                                 % sha[:12]), err
    assert main(["store", "verify", "--store", str(store)]) == 1
    out = capsys.readouterr().out
    assert "CORRUPT" in out and sha[:12] in out and "non-finite" in out


@pytest.mark.parametrize("field", ["since", "until", "window"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_query_bounds_must_be_finite(tmp_path, field, value):
    bank = TraceBank(tmp_path / "bank")
    bank.ingest_trace_file(TraceFile([make_event()], rank=0))
    with pytest.raises(StoreQueryError, match="must be finite"):
        run_query(bank, Query(**{field: value}))


def test_an_overflowing_aggregate_is_a_query_error(tmp_path):
    # Finite values whose sums, quotients or differences are not: two
    # ranks' total times, bandwidth over a denormal window, a bucket
    # index past any float, and the gap between two far-apart events.
    bank = TraceBank(tmp_path / "bank")
    far = [make_event(ts=-1.7e308, dur=0.0, rank=2),
           make_event(ts=1.7e308, dur=0.0, rank=2)]
    bank.ingest_bundle(TraceBundle(files={
        0: TraceFile([make_event(dur=1e308)], rank=0),
        1: TraceFile([make_event(dur=1e308, rank=1)], rank=1),
        2: TraceFile(far, rank=2),
    }))
    cases = [
        (run_query, Query(agg="ops", ranks=(0, 1)), "overflows"),
        (run_query, Query(agg="bandwidth", ranks=(0,), window=5e-324), "overflows"),
        (run_query, Query(agg="bandwidth", ranks=(2,), window=1e-300), "too small"),
        (build_dfg, Query(ranks=(2,)), "overflows"),
    ]
    for build, query, message in cases:
        with pytest.raises(StoreQueryError, match=message):
            build(bank, query)

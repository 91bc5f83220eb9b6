"""The batch event builder builds what the per-record builder built.

``decode_trace_file`` and ``decode_event_record`` build a segment's
events in one batch: each distinct name, hostname and user is decoded
once, args JSON goes to the C scanner, and events are built
positionally.  The
reference is the per-record builder it replaced
(``rtbf_reference.to_event``).  Both must give the same events, with the
same types of ``result`` and of every ``args`` element, and must refuse
the same records with the same error.
"""

import json
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rtbf_reference as ref
from repro.cli import main
from repro.trace.binary_format import (
    _RECORD,
    decode_event_record,
    decode_trace_file,
    encode_event_record,
    encode_trace_file,
    read_records,
)
from repro.trace.checksum import frame
from repro.trace.compressio import compress
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile

CORPUS_SEGMENTS = sorted(
    p for p in (Path(__file__).parent.parent / "store" / "corpus" / "archive"
                / "segments").rglob("*")
    if p.is_file()
)


def fingerprint(events):
    """Each event's repr (it tells -0.0 from 0.0 and 1 from True) with the
    types of its result and args elements."""
    return [(repr(e), type(e.result), [type(a) for a in e.args]) for e in events]


def reference_decode(blob):
    return [ref.to_event(row) for row in read_records(blob)]


def assert_same_events(blob):
    got = decode_trace_file(blob).events
    want = reference_decode(blob)
    assert fingerprint(got) == fingerprint(want)
    return got


def test_corpus_segments_decode_as_before():
    assert len(CORPUS_SEGMENTS) == 4
    for path in CORPUS_SEGMENTS:
        blob = path.read_bytes()
        assert decode_trace_file(blob).events == reference_decode(blob)
        assert_same_events(blob)


@pytest.fixture(scope="module")
def fresh_archive(tmp_path_factory):
    """The segments of a quick sweep plus a smoke zoo matrix, archived now."""
    root = tmp_path_factory.mktemp("fresh")
    store = str(root / "bank")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert main(["figures", "--quick", "--no-cache", "--store", store]) == 0
        assert main(["zoo", "matrix", "--smoke", "--no-cache", "--store", store]) == 0
    return sorted(p for p in (root / "bank" / "segments").rglob("*") if p.is_file())


def test_fresh_sweep_and_zoo_segments_decode_as_before(fresh_archive):
    assert len(fresh_archive) > 50
    records = 0
    for path in fresh_archive:
        blob = path.read_bytes()
        events = assert_same_events(blob)
        assert events == reference_decode(blob)
        records += len(events)
    assert records > 10_000


# Args elements of every JSON type the encoder writes: bigints, floats
# (-0.0 and the non-finite ones JSON spells NaN/Infinity), bools, None,
# non-ASCII and astral text, nested lists and empty tuples.
_text = (st.sampled_from(["", "SYS_write", "é", "日本", "\U0001F600x", 'q"\\', "\x00\n"])
         | st.text(max_size=8))
_scalar = (
    st.integers(-(1 << 200), 1 << 200)
    | st.integers(1 << 64, 1 << 200) | st.integers(-(1 << 200), -(1 << 64))
    | st.floats() | st.just(-0.0)
    | st.booleans() | st.none() | _text
)
_arg = st.recursive(
    _scalar,
    lambda inner: (st.lists(inner, max_size=3) | st.just(())
                   | st.lists(inner, max_size=2).map(tuple)),
    max_leaves=6,
)
_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def events(draw):
    return TraceEvent(
        draw(st.floats(**_finite)),
        draw(st.floats(min_value=0.0, **_finite)),
        draw(st.sampled_from(list(EventLayer))),
        draw(_text),
        tuple(draw(st.lists(_arg, max_size=4))),
        draw(st.none() | st.integers(-(1 << 200), 1 << 200) | _text
             | st.sampled_from(["42", "-7", " 5", "1_0", "٣"])),
        draw(st.integers(0, (1 << 32) - 1)),
        draw(st.none() | st.integers(-(1 << 31), (1 << 31) - 1)),
        draw(_text),
        draw(_text),
        draw(st.none() | _text),
        draw(st.none() | st.integers(-(1 << 63), (1 << 63) - 1)),
        draw(st.none() | st.integers(0, (1 << 63) - 1)),
        draw(st.none() | st.integers(-(1 << 63), (1 << 63) - 1)),
    )


class TestGeneratedEvents:
    @given(evs=st.lists(events(), max_size=10), block=st.sampled_from([1, 3, 128]))
    @settings(max_examples=150, deadline=None)
    def test_trace_file(self, evs, block):
        assert_same_events(encode_trace_file(TraceFile(evs), block_records=block))

    @given(e=events())
    @settings(max_examples=100, deadline=None)
    def test_event_record(self, e):
        data = encode_event_record(e)
        got, end = decode_event_record(data)
        assert end == len(data)
        assert fingerprint([got]) == fingerprint(reference_decode(_blob(data)))


SLOTS = ("name", "hostname", "user", "path", "result", "args")
GOOD = dict(name=b"SYS_write", hostname=b"node0", user=b"u", path=b"/pfs/f",
            result=b"8", args=b'[3,"x",8]')


def _record(flags=0x3F, **strings):
    """One record holding each string body verbatim (``GOOD`` by default)."""
    bodies = dict(GOOD, **strings)
    fixed = _RECORD.pack(1.5, 0.25, 0, 7, 3, 8, 0, flags, 2)
    return fixed + b"".join(struct.pack("<H", len(bodies[s])) + bodies[s] for s in SLOTS)


def _blob(*records):
    """An uncompressed, unchecksummed trace holding ``records`` verbatim."""
    header = json.dumps({"n_events": len(records)}).encode()
    body = struct.pack("<I", len(records)) + b"".join(records)
    return (b"RTBF" + struct.pack("<H", 1) + frame(header, with_checksum=False)
            + frame(compress(body, enabled=False), with_checksum=False))


def _outcome(build):
    try:
        return "ok", fingerprint(build())
    except Exception as exc:  # the error itself is what is compared
        return "error", type(exc), str(exc)


BAD_UTF8 = [pytest.param(slot, raw, id="%s-%s" % (slot, raw.hex()))
            for slot in SLOTS for raw in (b"\xff", b"ab\xc3", b"\xed\xa0\x80")]

ARGS = [
    b"5", b'"abc"', b'{"a":1}', b"null", b"true", b"1.5",  # not a list
    b" [1]", b"[1] ", b"\n[1]\t", b"\t [ 1 , 2 ] \r\n",  # whitespace-padded
    "\ufeff[1]".encode(), "\ufeff [1]".encode(),  # BOM-prefixed
    b"[1]x", b"[1][2]", b"[1],", b"[1", b"", b"[1,]", b"[01]",  # trailing/bad
    b"[NaN,Infinity,-Infinity]", b"[1e400,-0.0,-0]", b"[" + b"9" * 5000 + b"]",
    b'["\\ud800"]', b'["\\u00e9\\ud83d\\ude00"]', b"[[],[[]],{}]",
]


class TestSameErrors:
    @pytest.mark.parametrize("slot, raw", BAD_UTF8)
    @pytest.mark.parametrize("flags", [0x3F, 0x00], ids=["present", "absent"])
    def test_bad_utf8_in_each_string_slot(self, slot, raw, flags):
        blob = _blob(_record(flags=flags, **{slot: raw}))
        want = _outcome(lambda: reference_decode(blob))
        assert want[0] == "error"
        assert _outcome(lambda: decode_trace_file(blob).events) == want
        record = _record(flags=flags, **{slot: raw})
        assert _outcome(lambda: [decode_event_record(record)[0]]) == want

    @pytest.mark.parametrize("raw", ARGS, ids=[a.hex()[:24] or "empty" for a in ARGS])
    def test_args_json(self, raw):
        blob = _blob(_record(args=raw))
        want = _outcome(lambda: reference_decode(blob))
        assert _outcome(lambda: decode_trace_file(blob).events) == want
        assert _outcome(lambda: [decode_event_record(_record(args=raw))[0]]) == want

    @pytest.mark.parametrize("first, message", [
        (_record(args=b"[1"), "corrupt args JSON in record"),
        (_record(user=b"\xff"), "corrupt UTF-8 in string field"),
    ], ids=["bad-args-first", "bad-utf8-first"])
    def test_the_first_bad_record_names_the_error(self, first, message):
        later = _record(user=b"\xff", args=b"[1")
        blob = _blob(_record(), first, later)
        want = _outcome(lambda: reference_decode(blob))
        assert want[::2] == ("error", message)
        assert _outcome(lambda: decode_trace_file(blob).events) == want

"""Binary codec tests: round-trips, buffering, compression, failure injection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceChecksumError, TraceFormatError, TraceTruncatedError
from repro.trace.binary_format import (
    FIELDS,
    decode_event_record,
    decode_trace_file,
    encode_event_record,
    encode_trace_file,
    project,
    read_records,
)
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile


def sample_event(**kw):
    defaults = dict(
        timestamp=1159808385.170918,
        duration=0.011131,
        layer=EventLayer.VFS,
        name="vfs_write",
        args=(5, 0, 65536),
        result=65536,
        pid=4242,
        rank=None,
        hostname="node03",
        user="jdoe",
        path="/tmp/out.dat",
        fd=5,
        nbytes=65536,
        offset=0,
    )
    defaults.update(kw)
    return TraceEvent(**defaults)


class TestRecordRoundTrip:
    def test_single_record(self):
        e = sample_event()
        data = encode_event_record(e)
        got, consumed = decode_event_record(data)
        assert got == e
        assert consumed == len(data)

    def test_optional_fields_none(self):
        e = sample_event(rank=None, fd=None, nbytes=None, offset=None, path=None, result=None)
        got, _ = decode_event_record(encode_event_record(e))
        assert got == e

    def test_zero_valued_optionals_distinct_from_none(self):
        e = sample_event(rank=0, fd=0, nbytes=0, offset=0)
        got, _ = decode_event_record(encode_event_record(e))
        assert got.rank == 0 and got.fd == 0 and got.nbytes == 0 and got.offset == 0

    def test_truncated_record_detected(self):
        data = encode_event_record(sample_event())
        with pytest.raises(TraceTruncatedError):
            decode_event_record(data[: len(data) // 2])


_names = st.sampled_from(["vfs_write", "SYS_open", "MPI_File_read_at"])


@st.composite
def events(draw):
    return TraceEvent(
        timestamp=draw(st.floats(0, 2e9, allow_nan=False)),
        duration=draw(st.floats(0, 1e4, allow_nan=False)),
        layer=draw(st.sampled_from(list(EventLayer))),
        name=draw(_names),
        args=tuple(draw(st.lists(st.integers(-(1 << 31), 1 << 31) | st.text(max_size=20), max_size=4))),
        result=draw(st.none() | st.integers(-(1 << 40), 1 << 40)),
        pid=draw(st.integers(0, (1 << 32) - 1)),
        rank=draw(st.none() | st.integers(-1, 1 << 20)),
        hostname=draw(st.text(max_size=20)),
        user=draw(st.text(max_size=10)),
        path=draw(st.none() | st.text(min_size=1, max_size=40)),
        fd=draw(st.none() | st.integers(0, 1 << 30)),
        nbytes=draw(st.none() | st.integers(0, 1 << 50)),
        offset=draw(st.none() | st.integers(0, 1 << 50)),
    )


class TestFileRoundTripProperties:
    @given(
        evs=st.lists(events(), max_size=30),
        compressed=st.booleans(),
        block=st.sampled_from([1, 3, 128]),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, evs, compressed, block):
        tf = TraceFile(evs, hostname="n", pid=9, rank=3, framework="tracefs")
        blob = encode_trace_file(tf, compressed=compressed, block_records=block)
        got = decode_trace_file(blob)
        assert got.events == tf.events
        assert got.rank == 3 and got.framework == "tracefs"

    @given(evs=st.lists(events(), min_size=1, max_size=10))
    @settings(max_examples=20, deadline=None)
    def test_compression_only_changes_size(self, evs):
        tf = TraceFile(evs)
        a = decode_trace_file(encode_trace_file(tf, compressed=True))
        b = decode_trace_file(encode_trace_file(tf, compressed=False))
        assert a.events == b.events


class TestBinaryProperties:
    def test_compression_shrinks_repetitive_traces(self):
        tf = TraceFile([sample_event(timestamp=float(i)) for i in range(500)])
        packed = encode_trace_file(tf, compressed=True)
        raw = encode_trace_file(tf, compressed=False)
        assert len(packed) < len(raw) / 2

    def test_binary_is_smaller_than_text(self):
        """The point of a binary format: 'save space' (§3.1)."""
        from repro.trace.text_format import encode_trace_file as encode_text

        tf = TraceFile([sample_event(timestamp=float(i)) for i in range(200)])
        assert len(encode_trace_file(tf, compressed=False)) < len(
            encode_text(tf).encode()
        )

    def test_block_records_validated(self):
        with pytest.raises(TraceFormatError):
            encode_trace_file(TraceFile(), block_records=0)


class TestFailureInjection:
    def blob(self, n=10, **kw):
        tf = TraceFile([sample_event(timestamp=float(i)) for i in range(n)])
        return encode_trace_file(tf, **kw)

    def test_bad_magic(self):
        with pytest.raises(TraceFormatError):
            decode_trace_file(b"NOPE" + self.blob()[4:])

    def test_bad_version(self):
        blob = bytearray(self.blob())
        blob[4] = 99
        with pytest.raises(TraceFormatError):
            decode_trace_file(bytes(blob))

    def test_truncation_detected_everywhere(self):
        blob = self.blob(n=20, block_records=4)
        for cut in (5, len(blob) // 3, len(blob) - 1):
            with pytest.raises((TraceTruncatedError, TraceFormatError)):
                decode_trace_file(blob[:cut])

    def test_single_bit_flip_detected(self):
        blob = bytearray(self.blob(n=8, compressed=False))
        # flip a bit inside the last block's payload (past header frame)
        blob[-3] ^= 0x40
        with pytest.raises((TraceChecksumError, TraceFormatError)):
            decode_trace_file(bytes(blob))

    def test_event_count_mismatch_detected(self):
        # corrupt by appending a duplicate final frame: count no longer matches
        blob = self.blob(n=4, block_records=2, compressed=False)
        # find the last frame and duplicate it
        import struct

        # header: magic(4) + version(2); then frames of (len,crc,payload)
        pos = 6
        frames = []
        while pos < len(blob):
            (length, _crc) = struct.unpack_from("<II", blob, pos)
            frames.append((pos, 8 + length))
            pos += 8 + length
        start, size = frames[-1]
        with pytest.raises(TraceFormatError):
            decode_trace_file(blob + blob[start : start + size])


# Column projection: project over read_records must agree field for field
# with a full decode.  Results include numeric-looking strings on purpose: RTBF
# re-parses them as ints, and the projection must do exactly the same.
LAYERS = tuple(EventLayer)
finite = dict(allow_nan=False, allow_infinity=False)

result_strategy = st.one_of(
    st.none(),
    st.integers(min_value=-(1 << 40), max_value=1 << 40),
    st.text(alphabet="EINTRAGAIN/_ o-0123456789", min_size=1, max_size=8),
)

event_strategy = st.builds(
    TraceEvent,
    timestamp=st.floats(min_value=0.0, max_value=1e6, **finite),
    duration=st.floats(min_value=0.0, max_value=1e3, **finite),
    layer=st.sampled_from(LAYERS),
    name=st.sampled_from(("SYS_read", "SYS_write", "MPI_File_open", "vfs_write")),
    args=st.lists(
        st.one_of(st.integers(-100, 1 << 30), st.text(max_size=6)), max_size=3
    ).map(tuple),
    result=result_strategy,
    pid=st.integers(min_value=0, max_value=1 << 31),
    rank=st.one_of(st.none(), st.integers(min_value=0, max_value=4096)),
    hostname=st.sampled_from(("", "host01", "node-7.example")),
    user=st.sampled_from(("", "u1", "alice")),
    path=st.one_of(st.none(), st.sampled_from(("/pfs/out", "/tmp/x", "/mnt/a b"))),
    fd=st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 20)),
    nbytes=st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 50)),
    offset=st.one_of(st.none(), st.integers(min_value=0, max_value=1 << 60)),
)

tracefile_strategy = st.builds(
    TraceFile,
    events=st.lists(event_strategy, max_size=24),
    hostname=st.sampled_from(("", "host00")),
    pid=st.integers(min_value=0, max_value=1 << 20),
    rank=st.one_of(st.none(), st.integers(min_value=0, max_value=64)),
    framework=st.sampled_from(("", "lanl-trace", "tracefs")),
)


def _raw_blob(records):
    """An unchecksummed, uncompressed trace holding ``records`` verbatim."""
    import json
    import struct

    from repro.trace.checksum import frame

    header = json.dumps({"n_events": len(records)}).encode()
    body = struct.pack("<I", len(records)) + b"".join(records)
    return (b"RTBF" + struct.pack("<H", 1) + frame(header, with_checksum=False)
            + frame(body, with_checksum=False))


def _columns(blob, fields):
    """``fields`` projected over every record of ``blob``."""
    rows = read_records(blob)
    return {f: project(rows, f) for f in fields}


class TestReadColumns:
    @given(
        tf=tracefile_strategy,
        compressed=st.booleans(),
        checksum=st.booleans(),
        block=st.sampled_from([1, 5, 128]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_column_equals_the_decoded_field(self, tf, compressed, checksum, block):
        blob = encode_trace_file(tf, compressed=compressed, checksum=checksum,
                                 block_records=block)
        events = decode_trace_file(blob).events
        cols = _columns(blob, FIELDS)
        assert sorted(cols) == sorted(FIELDS)
        for f in FIELDS:
            want = [getattr(e, f) for e in events]
            if f == "layer":
                want = [layer.value for layer in want]
            assert cols[f] == want, f
            assert [type(v) for v in cols[f]] == [type(v) for v in want], f

    @given(tf=tracefile_strategy, fields=st.lists(st.sampled_from(FIELDS), max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_projection_returns_just_the_asked_fields(self, tf, fields):
        blob = encode_trace_file(tf)
        full = _columns(blob, FIELDS)
        assert _columns(blob, fields) == {f: full[f] for f in fields}

    @given(tf=tracefile_strategy, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncation_raises_typed_errors(self, tf, data):
        blob = encode_trace_file(tf, block_records=4)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        with pytest.raises((TraceTruncatedError, TraceFormatError)):
            _columns(blob[:cut], ["name", "duration"])

    def test_bad_magic_and_unknown_field(self):
        blob = encode_trace_file(TraceFile([sample_event()]))
        with pytest.raises(TraceFormatError):
            _columns(b"NOPE" + blob[4:], ["name"])
        with pytest.raises(TraceFormatError):
            _columns(blob, ["name", "flags"])

    def test_unknown_layer_code(self):
        rec = bytearray(encode_event_record(sample_event()))
        rec[16] = 0xEE  # the layer byte follows two f8 fields
        blob = _raw_blob([bytes(rec)])
        for read in (decode_trace_file, lambda b: _columns(b, ["duration"])):
            with pytest.raises(TraceFormatError):
                read(blob)

    def test_trailing_bytes(self):
        rec = encode_event_record(sample_event())
        # after the last frame, and inside a block past its last record
        for bad in (_raw_blob([rec]) + b"\x01", _raw_blob([rec + b"\x00\x00"])):
            for read in (decode_trace_file, lambda b: _columns(b, ["name"])):
                with pytest.raises((TraceTruncatedError, TraceFormatError)):
                    read(bad)

"""The RTBF encoder and the segment summary match their references exactly.

Segment bytes are content addresses: run ids hash them, dedup compares
them and they break ties in the ``events`` aggregate's order.  So the
one-pass encoder (frames of repeated strings packed once, one struct per
record, args rendered without ``json.dumps``) must write the very bytes
of the per-event reference in ``rtbf_reference.py`` for every input,
including the ones it treats specially, under every flag combination.
"""

import enum
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import rtbf_reference as ref
from repro.errors import TraceFormatError
from repro.store.segments import summarize_segment
from repro.trace.binary_format import (
    MAX_STRING_BYTES,
    check_string_limits,
    encode_event_record,
    encode_trace_file,
)
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile

FLAGS = [
    dict(compressed=c, checksum=k, block_records=b)
    for c, k, b in itertools.product((True, False), (True, False), (1, 3, 128))
]


class Tag(str):
    """A str subclass: JSON renders it like a plain str."""


class Mode(enum.IntEnum):
    """An int subclass: JSON renders it as its value."""

    READ = 4
    WRITE = 2


# Small pools make strings repeat within a trace; free text makes them differ.
_POOL = ["SYS_write", "host00", "jdoe", "/pfs/out", "", "é", "日本",
         'quote"back\\slash', "tab\tnew\nline", "\x00\x1f", "\U0001F600"]
_text = st.sampled_from(_POOL) | st.text(max_size=12)
_int = st.integers(-(1 << 63), (1 << 63) - 1)
_scalar = (
    st.integers()
    | _text
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([Mode.READ, Mode.WRITE, EventLayer.VFS])
    | _text.map(Tag)
)
_arg = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=6,
)
# Results: ints, numeric-looking and other strings, and the odd non-int.
_result = (
    st.none()
    | _int
    | st.sampled_from(["42", "-7", "0x10", " 5", "1e3", "", "EAGAIN"])
    | _text
    | st.booleans()
    | st.floats(allow_nan=True)
)


@st.composite
def events(draw):
    return TraceEvent(
        timestamp=draw(st.floats(allow_nan=True, allow_infinity=True)),
        duration=draw(st.floats(min_value=0.0) | st.just(float("nan"))),
        layer=draw(st.sampled_from(list(EventLayer))),
        name=draw(_text),
        args=tuple(draw(st.lists(_arg, max_size=4))),
        result=draw(_result),
        pid=draw(st.integers(0, (1 << 32) - 1)),
        rank=draw(st.none() | st.integers(-(1 << 31), (1 << 31) - 1)),
        hostname=draw(_text),
        user=draw(_text),
        path=draw(st.none() | _text),
        fd=draw(st.none() | _int),
        nbytes=draw(st.none() | st.integers(0, 1 << 40)),
        offset=draw(st.none() | _int),
    )


trace_files = st.builds(
    TraceFile,
    st.lists(events(), max_size=12),
    hostname=_text,
    pid=st.integers(0, 1 << 20),
    rank=st.none() | st.integers(0, 64),
    framework=st.sampled_from(["lanl-trace", "tracefs", ""]),
)


class TestEncoderMatchesReference:
    @given(tf=trace_files)
    @settings(max_examples=150, deadline=None)
    def test_trace_file_bytes_identical_under_every_flag(self, tf):
        for flags in FLAGS:
            assert encode_trace_file(tf, **flags) == ref.encode_trace_file(tf, **flags)

    @given(e=events())
    @settings(max_examples=100, deadline=None)
    def test_event_record_bytes_identical(self, e):
        assert encode_event_record(e) == ref.encode_event_record(e)

    def test_repeated_strings_reuse_one_frame_per_trace(self):
        # Same text in different fields and a str subclass equal to a
        # plain str: the shared frame must serve both byte-identically.
        base = TraceEvent(0.0, 0.5, EventLayer.SYSCALL, "x", args=(Tag("x"),),
                          result="x", hostname="x", user="x", path="x")
        tf = TraceFile([base, base.with_fields(name=Tag("x"), path=None)] * 3)
        for flags in FLAGS:
            assert encode_trace_file(tf, **flags) == ref.encode_trace_file(tf, **flags)


class TestStringLimit:
    @pytest.mark.parametrize("field", ["name", "hostname", "user", "path"])
    def test_overlong_field_raises(self, field):
        e = TraceEvent(0.0, 0.0, EventLayer.VFS, "vfs_write")
        e = e.with_fields(**{field: "p" * (MAX_STRING_BYTES + 1)})
        for encode in (encode_trace_file, ref.encode_trace_file):
            with pytest.raises(TraceFormatError):
                encode(TraceFile([e]))

    # (event fields, whether the encoders overflow): each case sits one
    # byte either side of the limit, in the field's encoded form.
    CASES = [
        (dict(path="p" * MAX_STRING_BYTES), False),
        (dict(path="p" * (MAX_STRING_BYTES + 1)), True),
        (dict(user="€" * (MAX_STRING_BYTES // 3)), False),  # 3-byte UTF-8
        (dict(user="€" * (MAX_STRING_BYTES // 3) + "u"), True),
        (dict(hostname="\U0001F600" * (MAX_STRING_BYTES // 4)), False),  # 4-byte
        (dict(hostname="\U0001F600" * (MAX_STRING_BYTES // 4 + 1)), True),
        (dict(result="r" * MAX_STRING_BYTES), False),
        (dict(result="9" * (MAX_STRING_BYTES + 1)), True),
        # args JSON: brackets and quotes take 4 bytes, "é" escapes to 6.
        (dict(args=("a" * (MAX_STRING_BYTES - 4),)), False),
        (dict(args=("a" * (MAX_STRING_BYTES - 3),)), True),
        (dict(args=("é" * ((MAX_STRING_BYTES - 4) // 6),)), False),
        (dict(args=("é" * ((MAX_STRING_BYTES - 4) // 6 + 1),)), True),
        (dict(args=("\U0001F600" * 5400,)), False),  # 12 bytes escaped
        (dict(args=("\U0001F600" * 5500,)), True),
        (dict(args=(1.5,) * 20000), True),  # no str element, still too long
        (dict(args=(True,) * 13106), False),  # 65,531 bytes of "[true,...]"
        (dict(args=(True,) * 13108), True),
    ]

    @pytest.mark.parametrize("fields,overflows", CASES)
    def test_check_raises_exactly_when_the_encoder_does(self, fields, overflows):
        tf = TraceFile([TraceEvent(0.0, 0.0, EventLayer.VFS, "vfs_write", **fields)])
        if overflows:
            for encode in (check_string_limits, encode_trace_file, ref.encode_trace_file):
                with pytest.raises(TraceFormatError):
                    encode(tf)
        else:
            check_string_limits(tf)
            assert encode_trace_file(tf) == ref.encode_trace_file(tf)

    def test_check_names_the_event_and_field(self):
        ok = TraceEvent(0.0, 0.0, EventLayer.VFS, "vfs_write")
        bad = ok.with_fields(path="/" + "d" * MAX_STRING_BYTES)
        with pytest.raises(TraceFormatError, match=r"event 1: path is 65536 bytes"):
            check_string_limits(TraceFile([ok, bad, ok]))

    @given(tf=trace_files)
    @settings(max_examples=50, deadline=None)
    def test_check_passes_whatever_the_encoder_accepts(self, tf):
        ref.encode_trace_file(tf)
        check_string_limits(tf)


class TestSummaryMatchesReference:
    @given(tf=trace_files, rank=st.integers(0, 64))
    @settings(max_examples=150, deadline=None)
    def test_summary_identical(self, tf, rank):
        # repr, not ==: it tells NaN from NaN's absence and -0.0 from 0.0.
        got = summarize_segment(tf, rank, "sha", 123)
        want = ref.summarize_segment(tf, rank, "sha", 123)
        assert repr(got) == repr(want)

    def test_empty_trace(self):
        assert summarize_segment(TraceFile(), 0, "s", 0) == ref.summarize_segment(
            TraceFile(), 0, "s", 0
        )

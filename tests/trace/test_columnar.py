"""Legacy columnar (RTCF) reader: decode, projection, robustness.

Nothing writes RTCF any more, so these tests read the segments of the
committed legacy archive (``tests/store/corpus/``): one run stored as
RTCF and as RTBF by the last release that wrote both.  Decode must give
back the events that release archived, agree with the RTBF copy
wherever RTBF is itself lossless, and projection must return exactly
the per-field views a full decode gives.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.errors import TraceError, TraceFormatError
from repro.trace.binary_format import FIELDS, decode_trace_file
from repro.trace.columnar import (
    MAGIC,
    decode_trace_file_columnar,
    is_columnar,
    read_columns,
    read_header,
)

STORE_TESTS = Path(__file__).resolve().parents[1] / "store"
sys.path.insert(0, str(STORE_TESTS))

from storeutil import CORPUS, corpus_bundle  # noqa: E402


def _segments(label):
    """``{rank: blob}`` of one corpus run, read straight off disk."""
    expected = json.loads((CORPUS / "expected.json").read_text("utf-8"))
    run_id = expected["runs"][label]
    archive = CORPUS / "archive"
    manifest = json.loads((archive / "manifests" / (run_id + ".json")).read_text())
    return {
        seg["rank"]: (archive / "segments" / seg["sha256"][:2]
                      / (seg["sha256"] + ".seg")).read_bytes()
        for seg in manifest["segments"]
    }


RTCF = _segments("rtcf")
RTBF = _segments("rtbf")


def same_file(a, b):
    return (
        a.events == b.events
        and a.hostname == b.hostname
        and a.pid == b.pid
        and a.rank == b.rank
        and a.framework == b.framework
    )


class TestRoundTrip:
    def test_v2_roundtrip_is_identity(self):
        want = corpus_bundle()
        assert sorted(RTCF) == sorted(want.files)
        for rank, blob in RTCF.items():
            assert is_columnar(blob)
            assert same_file(decode_trace_file_columnar(blob), want.files[rank])

    def test_v1_and_v2_roundtrips_agree(self):
        # Rank 1 carries the one result RTBF cannot keep (see below).
        for rank in (0, 2, 3):
            assert same_file(
                decode_trace_file_columnar(RTCF[rank]), decode_trace_file(RTBF[rank])
            )

    def test_v2_preserves_result_type_v1_cannot(self):
        # RTBF renders results as text, so the string "42" decodes as the
        # int 42; the columnar flags column kept the distinction.
        via_v1 = decode_trace_file(RTBF[1]).events
        via_v2 = decode_trace_file_columnar(RTCF[1]).events
        assert via_v1[5].result == 42
        assert via_v2[5].result == "42"
        assert via_v1[:5] + via_v1[6:] == via_v2[:5] + via_v2[6:]

    def test_empty_trace_file(self):
        tf = decode_trace_file_columnar(RTCF[3])
        assert tf.events == [] and tf.rank == 3
        assert read_header(RTCF[3])["n_events"] == 0
        assert read_columns(RTCF[3], ["name", "timestamp"]) == {
            "name": [],
            "timestamp": [],
        }

    def test_delta_overflow_falls_back_to_raw(self):
        # Rank 2's offsets alternate 0 / 2^62, overflowing a signed-64
        # delta: the column was packed raw and must still read back.
        offsets = [e.offset for e in corpus_bundle().files[2].events]
        assert offsets[:2] == [0, 1 << 62]
        assert read_columns(RTCF[2], ["offset"])["offset"] == offsets
        assert [e.offset for e in decode_trace_file_columnar(RTCF[2]).events] == offsets


class TestProjection:
    def test_every_field_matches_full_decode(self):
        for blob in RTCF.values():
            tf = decode_trace_file_columnar(blob)
            cols = read_columns(blob, FIELDS)
            for f in FIELDS:
                want = [getattr(e, f) for e in tf.events]
                if f == "layer":
                    want = [layer.value for layer in want]
                assert cols[f] == want, f

    def test_header_stats_and_name_sets(self):
        tf = corpus_bundle().files[1]
        h = read_header(RTCF[1])
        assert h["n_events"] == len(tf.events)
        assert h["names"] == sorted({e.name for e in tf.events})
        assert h["paths"] == sorted({e.path for e in tf.events if e.path})
        ts = [e.timestamp for e in tf.events]
        assert h["stats"]["timestamp"] == {"min": min(ts), "max": max(ts)}
        present_nb = [e.nbytes for e in tf.events if e.nbytes is not None]
        assert h["stats"]["nbytes"] == {"min": min(present_nb), "max": max(present_nb)}

    def test_unknown_column_rejected(self):
        with pytest.raises(TraceFormatError):
            read_columns(RTCF[0], ["name", "no_such_column"])


class TestRobustness:
    blob = RTCF[1]

    def test_truncations_raise_trace_errors(self):
        blob = self.blob
        for cut in (0, 2, 5, len(blob) // 3, len(blob) - 1):
            with pytest.raises(TraceError):
                decode_trace_file_columnar(blob[:cut])
            with pytest.raises(TraceError):
                read_columns(blob[:cut], ["name"])

    def test_bad_magic_rejected(self):
        blob = self.blob
        with pytest.raises(TraceFormatError):
            decode_trace_file_columnar(b"XXXX" + blob[4:])
        assert not is_columnar(b"")
        assert not is_columnar(RTBF[1])

    def test_unsupported_version_rejected(self):
        blob = bytearray(self.blob)
        blob[len(MAGIC)] = 0xEE
        with pytest.raises(TraceFormatError):
            decode_trace_file_columnar(bytes(blob))

    def test_flipped_column_byte_detected(self):
        # With checksums on, any corrupt column frame must surface as a
        # TraceError (checksum or format), never a wrong-answer decode.
        blob = self.blob
        original = decode_trace_file_columnar(blob)
        for pos in range(len(MAGIC) + 2, len(blob), max(1, len(blob) // 40)):
            mutated = bytearray(blob)
            mutated[pos] ^= 0x01
            try:
                got = decode_trace_file_columnar(bytes(mutated))
            except TraceError:
                continue
            # json header bytes can flip harmlessly inside string values;
            # events must still never silently change.
            assert got.events == original.events

    def test_trailing_garbage_rejected(self):
        with pytest.raises(TraceFormatError):
            decode_trace_file_columnar(self.blob + b"\x00\x00\x00\x00")
        with pytest.raises(TraceFormatError):
            read_columns(self.blob + b"\x00\x00\x00\x00", ["name"])

"""Content-addressed segment encode/decode and summary pushdown tests."""

import pytest

from storeutil import make_bundle, make_event, make_trace_file

from repro.errors import StoreCorruptionError, TraceError
from repro.store.bank import TraceBank
from repro.store.segments import (
    SegmentMeta,
    archive_errors,
    check_address,
    content_address,
    encode_segment,
    summarize_segment,
)
from repro.trace.binary_format import decode_trace_file, encode_trace_file, project, read_records
from repro.trace.events import EventLayer
from repro.trace.records import TraceFile


class TestEncodeDecode:
    def test_roundtrip(self):
        tf = make_trace_file(rank=1, n=5)
        blob, sha = encode_segment(tf)
        assert sha == content_address(blob)
        out = decode_trace_file(blob)
        assert out.events == tf.events
        assert out.rank == 1

    def test_encoding_is_deterministic(self):
        tf = make_trace_file(n=6)
        assert encode_segment(tf) == encode_segment(tf)

    @pytest.mark.parametrize("compressed", [True, False])
    @pytest.mark.parametrize("checksum", [True, False])
    def test_codec_flags_roundtrip(self, compressed, checksum):
        # Ingest always writes compressed, checksummed RTBF, but segments
        # read back whatever Tracefs flags encoded them.
        tf = make_trace_file(n=4)
        blob = encode_trace_file(tf, compressed=compressed, checksum=checksum)
        assert decode_trace_file(blob).events == tf.events
        rows = read_records(blob)
        cols = {f: project(rows, f) for f in ("name", "offset", "result")}
        assert cols == {
            "name": [e.name for e in tf.events],
            "offset": [e.offset for e in tf.events],
            "result": [e.result for e in tf.events],
        }

    def test_segment_bytes_and_run_id_are_pinned(self, tmp_path):
        # Run ids hash segment bytes and break cross-run timestamp ties
        # in the ``events`` aggregate: any re-encoding would reorder it.
        bank = TraceBank(tmp_path / "store")
        result = bank.ingest_bundle(make_bundle(nranks=3, n=24))
        assert result.run_id == (
            "ecee68446187b8c5b900d7dd7a63aea5075dce494e2ed74e5c8b6516a600b3c6"
        )
        assert [(s.rank, s.sha256) for s in bank.manifest(result.run_id).segments] == [
            (0, "dea3926e5c5f0004a34dc899a2c7a7ed87d11f6e66926f7fcc8b77837d0ebf52"),
            (1, "0a3a722c491b9dcfd71747bc38fa340006cb5834fe967f67ebf9bf590bdc749a"),
            (2, "ba5317a17738387502090baea1066d9f050ee52dedbcfd39c152ea2737bfc184"),
        ]

    def test_sha_mismatch_is_corruption(self):
        blob, sha = encode_segment(make_trace_file())
        check_address(blob, sha)
        with pytest.raises(StoreCorruptionError):
            check_address(blob + b"x", sha)

    def test_undecodable_with_expected_sha_is_corruption(self):
        bad = b"not a trace at all"
        with pytest.raises(StoreCorruptionError):
            with archive_errors(content_address(bad)):
                decode_trace_file(bad)

    def test_undecodable_without_sha_stays_trace_error(self):
        with pytest.raises(TraceError):
            decode_trace_file(b"not a trace at all")


class TestSegmentMeta:
    def make_meta(self):
        tf = make_trace_file(rank=2, n=10)
        blob, sha = encode_segment(tf)
        return summarize_segment(tf, 2, sha, len(blob))

    def test_summary_numbers(self):
        meta = self.make_meta()
        assert meta.rank == 2
        assert meta.n_events == 10
        assert meta.t_min == pytest.approx(0.0)
        assert meta.t_max == pytest.approx(0.09 + 0.001)
        assert meta.payload_bytes == 10 * 4096
        assert dict(meta.ops) == {"SYS_write": 10}
        assert dict(meta.layers) == {"syscall": 10}

    def test_json_roundtrip(self):
        meta = self.make_meta()
        assert SegmentMeta.from_json(meta.to_json()) == meta

    def test_may_match_rank_and_name(self):
        meta = self.make_meta()
        assert meta.may_match(ranks={2})
        assert not meta.may_match(ranks={0, 1})
        assert meta.may_match(names={"SYS_write"})
        assert not meta.may_match(names={"SYS_read"})
        assert meta.may_match(layers={"syscall"})
        assert not meta.may_match(layers={"vfs"})

    def test_may_match_time_window(self):
        meta = self.make_meta()  # events start in [0.0, 0.09]
        assert meta.may_match(since=0.05)
        assert not meta.may_match(since=1.0)
        assert meta.may_match(until=0.05)
        assert not meta.may_match(until=0.0)

    def test_empty_segment_never_matches(self):
        tf = TraceFile([], rank=0)
        blob, sha = encode_segment(tf)
        meta = summarize_segment(tf, 0, sha, len(blob))
        assert not meta.may_match()

    def test_mixed_layers_counted(self):
        tf = TraceFile(
            [
                make_event(ts=0.0),
                make_event(name="vfs_write", ts=0.1, layer=EventLayer.VFS),
            ],
            rank=0,
        )
        blob, sha = encode_segment(tf)
        meta = summarize_segment(tf, 0, sha, len(blob))
        assert dict(meta.layers) == {"syscall": 1, "vfs": 1}

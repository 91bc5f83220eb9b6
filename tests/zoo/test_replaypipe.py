"""Replay pipeline: capture → archive → replay round trips, all sources."""

import pytest

from repro.errors import ReplayError
from repro.harness.parallel import run_sweep
from repro.obs.metrics import canonical_json
from repro.replay.fidelity import OP_CLASSES, schedule_profile
from repro.replay.pseudoapp import build_pseudoapp
from repro.store.bank import TraceBank
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile
from repro.trace.text_format import encode_trace_file
from repro.zoo.registry import get
from repro.zoo.replaypipe import (
    choose_layer,
    load_source,
    render_fidelity_report,
    replay_pipeline,
    source_elapsed,
)

STRACE = """\
101 1700000000.000010 openat(AT_FDCWD, "/data/out.bin", O_WRONLY|O_CREAT, 0644) = 3 <0.000030>
101 1700000000.000100 write(3, "a"..., 4096) = 4096 <0.000020>
101 1700000000.000200 pwrite64(3, "b"..., 4096, 4096) = 4096 <0.000020>
101 1700000000.000300 fsync(3) = 0 <0.000100>
101 1700000000.000500 close(3) = 0 <0.000005>
102 1700000000.000600 openat(AT_FDCWD, "/data/in.bin", O_RDONLY) = 4 <0.000020>
102 1700000000.000700 read(4, ""..., 8192) = 8192 <0.000030>
102 1700000000.000800 close(4) = 0 <0.000004>
"""


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """One archived smoke run of the log-append scenario in a TraceBank."""
    store = str(tmp_path_factory.mktemp("zoo") / "bank")
    spec = get("log-append").spec(smoke=True, store=store)
    result = run_sweep([spec])
    point = result.points[0]
    assert point.error is None and point.store_run_id
    return store, point.store_run_id


class TestArchivedRoundTrip:
    """The acceptance loop: trace a scenario, archive it, replay the
    archive, and get the op schedule back exactly — counts and bytes."""

    def test_afap_replay_is_exact(self, archive):
        store, run_id = archive
        report = replay_pipeline([run_id], store=store, timing="afap")
        assert report["exact"] is True
        assert report["replay"]["timing"] == "afap"
        assert report["source"]["unreplayable"] == {}
        assert report["replay"]["profile"]["skipped"] == {}
        for cls in OP_CLASSES:
            row = report["per_class"][cls]
            assert row["count_delta"] == 0 and row["byte_delta"] == 0
        # a log-append run moves real payload, and the replay issued
        # exactly the bytes the schedule scripted
        assert report["per_class"]["write"]["source_bytes"] > 0
        assert (
            report["replay"]["profile"]["total_bytes"]
            == report["source"]["profile"]["total_bytes"]
        )

    def test_replay_report_matches_archived_schedule(self, archive):
        # The report's source side is exactly what compiling the archived
        # bundle yields — the archive is the single source of truth.
        store, run_id = archive
        report = replay_pipeline([run_id], store=store)
        bank = TraceBank(store)
        bundle = bank.load_run_bundle(bank.manifest(run_id))
        profile = schedule_profile(build_pseudoapp(bundle, layer=EventLayer.SYSCALL))
        assert canonical_json(report["source"]["profile"]) == canonical_json(profile)

    def test_run_id_prefix_resolves(self, archive):
        store, run_id = archive
        report = replay_pipeline([run_id[:8]], store=store)
        assert report["resolution"]["run_id"] == run_id

    def test_timing_policy_does_not_change_the_schedule(self, archive):
        store, run_id = archive
        afap = replay_pipeline([run_id], store=store, timing="afap")
        preserve = replay_pipeline([run_id], store=store, timing="preserve")
        assert canonical_json(afap["per_class"]) == canonical_json(
            preserve["per_class"]
        )
        assert preserve["replay"]["elapsed"] >= afap["replay"]["elapsed"]

    def test_reports_are_deterministic(self, archive):
        store, run_id = archive
        a = replay_pipeline([run_id], store=store)
        b = replay_pipeline([run_id], store=store)
        assert canonical_json(a) == canonical_json(b)

    def test_unknown_timing_rejected(self, archive):
        store, run_id = archive
        with pytest.raises(ReplayError, match="timing"):
            replay_pipeline([run_id], store=store, timing="warp")

    def test_provenance_carries_store_meta(self, archive):
        store, run_id = archive
        report = replay_pipeline([run_id], store=store)
        res = report["resolution"]
        assert res["kind"] == "store"
        assert res["meta"]["workload"] == "zoo_log_append"


class TestStraceSource:
    def test_raw_strace_replays_exactly(self, tmp_path):
        path = tmp_path / "capture.strace"
        path.write_text(STRACE)
        report = replay_pipeline([str(path)])
        assert report["exact"] is True
        assert report["resolution"]["kind"] == "strace"
        assert report["resolution"]["pids"] == 2  # one rank per pid
        w = report["per_class"]["write"]
        assert w["source_count"] == w["replay_count"] == 2
        assert w["source_bytes"] == w["replay_bytes"] == 8192
        r = report["per_class"]["read"]
        assert r["source_bytes"] == r["replay_bytes"] == 8192
        # host paths were re-rooted under a simulated mount by default
        assert report["source"]["profile"]["total_bytes"] == 16384

    def test_strace_timing_span_feeds_end_to_end(self, tmp_path):
        path = tmp_path / "capture.strace"
        path.write_text(STRACE)
        report = replay_pipeline([str(path)], timing="preserve")
        assert "end_to_end" in report
        assert report["end_to_end"]["original_elapsed"] > 0

    def test_unparseable_strace_raises(self, tmp_path):
        path = tmp_path / "empty.strace"
        path.write_text("101 1700000000.0 futex(0x7f) = 0 <0.1>\n")
        # shaped like strace, but nothing replayable inside
        with pytest.raises(ReplayError, match="no replayable"):
            replay_pipeline([str(path)])


class TestLibraryTraceSource:
    def _trace_file(self, tmp_path, rank=0):
        tf = TraceFile(
            [
                TraceEvent(
                    timestamp=1.0 + i,
                    duration=0.001,
                    layer=EventLayer.SYSCALL,
                    name="SYS_pwrite64",
                    path="/pfs/replayed.out",
                    offset=i * 4096,
                    nbytes=4096,
                    result=4096,
                )
                for i in range(3)
            ],
            rank=rank,
            framework="lanl-trace",
        )
        path = tmp_path / ("rank%d.trace" % rank)
        path.write_text(encode_trace_file(tf))
        return path

    def test_text_trace_file_replays(self, tmp_path):
        report = replay_pipeline([str(self._trace_file(tmp_path))])
        assert report["exact"] is True
        assert report["resolution"]["kind"] == "trace-file"
        assert report["per_class"]["write"]["replay_bytes"] == 3 * 4096

    def test_multiple_files_become_ranks(self, tmp_path):
        paths = [str(self._trace_file(tmp_path, rank=r)) for r in (0, 1)]
        report = replay_pipeline(paths)
        assert report["source"]["nprocs"] == 2
        assert report["per_class"]["write"]["replay_bytes"] == 6 * 4096


class TestSourceResolution:
    def test_missing_source_raises(self, tmp_path):
        with pytest.raises(ReplayError, match="neither"):
            load_source([str(tmp_path / "nope.trace")])

    def test_no_sources_raises(self):
        with pytest.raises(ReplayError, match="no trace source"):
            load_source([])

    def test_store_without_archive_treats_source_as_file(self, tmp_path):
        # A store path with no STORE.json must not be auto-created.
        with pytest.raises(ReplayError, match="neither"):
            load_source(["abc123"], store=str(tmp_path / "not-a-bank"))
        assert not (tmp_path / "not-a-bank").exists()

    def test_choose_layer_prefers_syscall(self, archive):
        store, run_id = archive
        bank = TraceBank(store)
        bundle = bank.load_run_bundle(bank.manifest(run_id))
        assert choose_layer(bundle) is EventLayer.SYSCALL

    def test_source_elapsed_prefers_metadata(self, archive):
        store, run_id = archive
        bank = TraceBank(store)
        bundle = bank.load_run_bundle(bank.manifest(run_id))
        span = source_elapsed(bundle)
        assert span is not None and span > 0


class TestRendering:
    def test_fidelity_text_report(self, archive):
        store, run_id = archive
        text = render_fidelity_report(replay_pipeline([run_id], store=store))
        assert "exact: yes" in text
        for cls in OP_CLASSES:
            assert cls in text

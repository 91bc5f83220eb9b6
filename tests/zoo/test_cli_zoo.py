"""CLI wiring for the zoo command family: ls/describe/run/matrix/replay."""

import json

import pytest

from repro.cli import main
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile
from repro.trace.text_format import encode_trace_file
from repro.zoo.registry import names

STRACE_LINES = """\
101 1700000000.000010 openat(AT_FDCWD, "/data/out.bin", O_WRONLY|O_CREAT, 0644) = 3 <0.000030>
101 1700000000.000100 write(3, "a"..., 4096) = 4096 <0.000020>
101 1700000000.000300 close(3) = 0 <0.000005>
"""


class TestZooListing:
    def test_ls_shows_every_scenario(self, capsys):
        assert main(["zoo", "ls"]) == 0
        out = capsys.readouterr().out
        for name in names():
            assert name in out

    def test_describe_text(self, capsys):
        assert main(["zoo", "describe", "ml-epoch"]) == 0
        out = capsys.readouterr().out
        assert "shuffle_seed" in out and "read" in out

    def test_describe_json(self, capsys):
        assert main(["zoo", "describe", "md-storm", "--json"]) == 0
        desc = json.loads(capsys.readouterr().out)
        assert desc["workload"] == "zoo_metadata_storm"
        assert desc["signature"] == {"dominant": "metadata", "payload": False}

    def test_describe_unknown_fails(self, capsys):
        assert main(["zoo", "describe", "nope"]) == 1
        assert "unknown zoo scenario" in capsys.readouterr().err


class TestZooRun:
    def test_single_scenario_smoke(self, capsys):
        assert main(["zoo", "run", "md-storm", "--smoke"]) == 0
        assert "md-storm" in capsys.readouterr().out


class TestZooMatrix:
    def test_full_smoke_loop(self, tmp_path, capsys):
        """The acceptance command: matrix → archive → replay."""
        store = tmp_path / "bank"
        report_path = tmp_path / "zoo.json"
        rc = main(
            [
                "zoo", "matrix", "--smoke", "--jobs", "2",
                "--store", str(store), "--replay-check",
                "--report-out", str(report_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("exact") >= len(names())

        report = json.loads(report_path.read_text())
        assert report["summary"]["replay_exact"] == len(names())
        assert report["summary"]["signature_ok"] == len(names())

        replays = report["execution"]["replay_bench"]
        assert len(replays) == len(names())
        assert all(r["events_executed"] > 0 for r in replays)

        # and the archive replays standalone, by run-id prefix
        run_id = report["rows"][0]["store_run_id"]
        rc = main(
            [
                "zoo", "replay", run_id[:10],
                "--store", str(store), "--require-exact",
            ]
        )
        assert rc == 0
        assert "exact: yes" in capsys.readouterr().out

    def test_scenario_subset(self, capsys):
        assert main(["zoo", "matrix", "--smoke", "--scenarios", "md-storm"]) == 0
        out = capsys.readouterr().out
        assert "md-storm" in out and "ml-epoch" not in out


class TestZooReplay:
    def test_strace_file_replay(self, tmp_path, capsys):
        path = tmp_path / "cap.strace"
        path.write_text(STRACE_LINES)
        assert main(["zoo", "replay", str(path), "--require-exact"]) == 0
        out = capsys.readouterr().out
        assert "exact: yes" in out

    def test_strace_line_with_an_infinite_timestamp_is_skipped(self, tmp_path, capsys):
        # A 401-digit timestamp parses to inf: that line is skipped under
        # a counted warning and the rest of the capture replays.
        path = tmp_path / "cap.strace"
        path.write_text(
            '4242 1700000000.000100 write(1, "hello", 5) = 5 <0.000010>\n'
            '4242 %s.000200 write(1, "hello", 5) = 5 <0.000010>\n' % ("1" * 401)
        )
        out_path = tmp_path / "fid.json"
        assert main(["zoo", "replay", str(path), "--report-out", str(out_path)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out_path.read_text())
        assert report["resolution"]["parse_warnings"] == {"non_finite_time": 1}

    def test_missing_source_fails_cleanly(self, tmp_path, capsys):
        assert main(["zoo", "replay", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unmounted_path_names_the_mounts_and_remap_root(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        path.write_text(encode_trace_file(TraceFile(
            [TraceEvent(timestamp=1.0, duration=0.001, layer=EventLayer.SYSCALL,
                        name="SYS_pwrite64", path="/scratch/f0", offset=0,
                        nbytes=4096, result=4096)],
            rank=0, framework="lanl-trace",
        )))
        assert main(["zoo", "replay", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: replayed path /scratch/f0 is not under a simulated mount "
            "(/home, /pfs, /tmp); re-root the trace's paths with --remap-root, "
            "e.g. --remap-root /pfs/replay\n"
        )
        assert main(["zoo", "replay", str(path), "--remap-root", "/pfs/x",
                     "--require-exact"]) == 0

    def test_report_out(self, tmp_path):
        path = tmp_path / "cap.strace"
        path.write_text(STRACE_LINES)
        out_path = tmp_path / "fid.json"
        assert main(
            ["zoo", "replay", str(path), "--report-out", str(out_path)]
        ) == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == "repro/replay/fidelity/v1"
        assert report["exact"] is True

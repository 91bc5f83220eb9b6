"""Crash corpus for the strace parser: hostile real-world shapes.

Pins the contract from :mod:`repro.host.parser`: ``parse_strace`` never
raises — every line either becomes an event or a counted warning — and
stitched/interrupted/undecodable lines produce exactly the events and
tallies a forensic user needs to trust the parse.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.parser import StraceParseResult, parse_strace

CORPUS = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS.iterdir())


class TestCorpusNeverRaises:
    @pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
    def test_parses_without_raising(self, path):
        result = parse_strace(path.read_bytes())
        assert isinstance(result, StraceParseResult)
        assert result.n_lines > 0
        # every event the parse produced is a mapped, timestamped syscall
        for e in result.events:
            assert e.name.startswith("SYS_")
            assert e.timestamp > 0

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
    def test_text_and_bytes_inputs_agree(self, path):
        raw = path.read_bytes()
        as_bytes = parse_strace(raw)
        as_text = parse_strace(raw.decode("utf-8", errors="backslashreplace"))
        assert [e.name for e in as_text.events] == [e.name for e in as_bytes.events]

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=2048))
    def test_arbitrary_bytes_never_raise(self, data):
        parse_strace(data)


class TestCleanCapture:
    def test_all_lines_become_events(self):
        result = parse_strace((CORPUS / "basic.strace").read_bytes())
        assert result.warnings == {}
        assert result.n_events == result.n_lines == 8
        names = [e.name for e in result.events]
        assert names.count("SYS_open") == 2
        assert names.count("SYS_close") == 2
        assert "SYS_fsync" in names

    def test_io_sizes_come_from_results(self):
        events = parse_strace((CORPUS / "basic.strace").read_text()).events
        by_name = {e.name: e for e in reversed(events)}  # first occurrence wins
        assert by_name["SYS_read"].nbytes == 4096
        assert by_name["SYS_pread64"].nbytes == 512
        assert by_name["SYS_write"].nbytes == 2048
        assert by_name["SYS_open"].path == "/data/in.bin"
        assert by_name["SYS_read"].fd == 3


class TestUnfinishedResumed:
    def test_pairs_stitch_across_pids(self):
        result = parse_strace((CORPUS / "unfinished_resumed.strace").read_bytes())
        assert result.n_events == 4
        stitched = [e for e in result.events if e.name in ("SYS_write", "SYS_read")]
        assert len(stitched) == 2
        # the stitched event keeps the *start* timestamp and the result's
        # byte count and duration
        write = next(e for e in stitched if e.name == "SYS_write")
        assert write.timestamp == pytest.approx(1700000001.0001)
        assert write.nbytes == 100
        assert write.duration == pytest.approx(0.0002)
        assert write.pid == 2001

    def test_orphans_are_counted_not_fatal(self):
        result = parse_strace((CORPUS / "unfinished_resumed.strace").read_bytes())
        assert result.warnings == {
            "unmatched_resumed": 1,  # capture started mid-syscall (pid 2003)
            "unresolved_unfinished": 1,  # capture ended mid-syscall (pid 2001)
        }


class TestInterruptedAndNoise:
    def test_errno_and_question_mark_returns(self):
        result = parse_strace((CORPUS / "interrupted.strace").read_bytes())
        assert result.n_events == 2
        failed_open, killed_read = result.events
        assert failed_open.result == "-1 ENOENT"
        assert killed_read.result is None  # `= ?`: no return materialized
        assert killed_read.nbytes is None

    def test_signal_and_exit_markers_are_not_warned(self):
        result = parse_strace((CORPUS / "interrupted.strace").read_bytes())
        # the `--- SIGTERM ---` and `+++ exited +++` lines are expected
        # noise; only exit_group (unmapped) and `<detached ...>` warn
        assert result.warnings == {"unmapped_syscall": 1, "unparsed_line": 1}


class TestNonFiniteTimes:
    def test_overflowing_times_are_skipped_and_counted(self):
        # 401-digit timestamps and <durations> parse to inf, on complete
        # lines and on either half of an unfinished/resumed pair; a
        # finite 1e308 timestamp plus a 1e308 duration ends past any float.
        result = parse_strace((CORPUS / "non_finite.strace").read_bytes())
        assert [e.name for e in result.events] == ["SYS_open", "SYS_close"]
        assert result.warnings == {"non_finite_time": 5}


class TestGarbage:
    def test_pure_garbage_yields_warnings_only(self):
        result = parse_strace((CORPUS / "garbage.strace").read_bytes())
        assert result.n_events == 0
        assert result.warnings == {"unparsed_line": result.n_lines}


class TestHostileBytes:
    def test_invalid_utf8_lines_survive_escaped(self):
        result = parse_strace((CORPUS / "hostile.bin").read_bytes())
        assert result.n_events == 3  # open, read, close around the junk
        assert result.warnings["undecodable_bytes"] == 3
        assert result.warnings["unparsed_line"] == 1  # the binary junk line
        opened = result.events[0]
        assert opened.name == "SYS_open"
        # the raw path bytes round-trip as backslash escapes
        assert opened.path.startswith("/data/caf")

    def test_str_input_takes_the_text_path(self):
        text = (CORPUS / "basic.strace").read_text()
        assert parse_strace(text).warnings == {}

"""Host tracing tests: strace parser, in-process interposer, wrapper."""

import os
import tempfile

import pytest

from repro.errors import HostTracingError, StraceNotAvailable
from repro.host.parser import parse_strace
from repro.host.pyio import PyIOTracer
from repro.host.strace_wrapper import run_under_strace, strace_available

SAMPLE = """\
12345 1699999999.123456 openat(AT_FDCWD, "/etc/hosts", O_RDONLY) = 3 <0.000034>
12345 1699999999.123999 read(3, "127.0.0.1 localhost"..., 4096) = 212 <0.000017>
12345 1699999999.124100 write(1, "hi\\n", 3) = 3 <0.000008>
12345 1699999999.124500 close(3) = 0 <0.000005>
12345 1699999999.124800 stat("/missing", 0x7ffd) = -1 ENOENT (No such file) <0.000012>
12345 1699999999.125000 exit_group(0) = ?
12345 1699999999.125500 clock_gettime(CLOCK_MONOTONIC, {...}) = 0 <0.000002>
"""


class TestParser:
    def test_parses_known_calls(self):
        events = parse_strace(SAMPLE).events
        names = [e.name for e in events]
        assert names == ["SYS_open", "SYS_read", "SYS_write", "SYS_close", "SYS_stat64"]

    def test_unknown_calls_skipped(self):
        events = parse_strace(SAMPLE).events
        assert all("clock_gettime" not in e.name for e in events)

    def test_fields_extracted(self):
        events = parse_strace(SAMPLE).events
        open_ev = events[0]
        assert open_ev.path == "/etc/hosts"
        assert open_ev.result == 3
        assert open_ev.pid == 12345
        assert open_ev.duration == pytest.approx(0.000034)
        read_ev = events[1]
        assert read_ev.fd == 3
        assert read_ev.nbytes == 212

    def test_errno_results(self):
        events = parse_strace(SAMPLE).events
        stat_ev = [e for e in events if e.name == "SYS_stat64"][0]
        assert stat_ev.result == "-1 ENOENT"

    def test_unfinished_resumed_stitching(self):
        text = (
            "100 5.000000 write(4, \"data\", 1024 <unfinished ...>\n"
            "101 5.000100 read(5, \"x\", 1) = 1 <0.000010>\n"
            "100 5.002000 <... write resumed>) = 1024 <0.002000>\n"
        )
        events = parse_strace(text).events
        writes = [e for e in events if e.name == "SYS_write"]
        assert len(writes) == 1
        assert writes[0].timestamp == pytest.approx(5.0)
        assert writes[0].duration == pytest.approx(0.002)
        assert writes[0].nbytes == 1024

    def test_single_line_helper(self):
        (e,) = parse_strace('1.5 close(7) = 0 <0.001>').events
        assert e.name == "SYS_close" and e.fd == 7
        assert parse_strace("garbage").events == []

    def test_empty_input(self):
        assert parse_strace("").events == []


class TestPyIOTracer:
    def test_traces_real_file_io(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.bin")
            with PyIOTracer() as tracer:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT)
                os.write(fd, b"x" * 1000)
                os.close(fd)
                fd = os.open(path, os.O_RDONLY)
                data = os.read(fd, 1000)
                os.close(fd)
            assert data == b"x" * 1000
        names = [e.name for e in tracer.trace]
        assert names == [
            "SYS_open", "SYS_write", "SYS_close",
            "SYS_open", "SYS_read", "SYS_close",
        ]
        writes = [e for e in tracer.trace if e.name == "SYS_write"]
        assert writes[0].nbytes == 1000
        assert writes[0].path == path
        assert writes[0].duration >= 0

    def test_restores_os_functions_on_exit(self):
        before = os.write
        with PyIOTracer():
            assert os.write is not before
        assert os.write is before

    def test_restores_on_exception(self):
        before = os.open
        with pytest.raises(RuntimeError):
            with PyIOTracer():
                raise RuntimeError("inside")
        assert os.open is before

    def test_not_reentrant(self):
        with PyIOTracer() as t:
            with pytest.raises(HostTracingError):
                t.__enter__()

    def test_errors_recorded_and_reraised(self):
        with PyIOTracer() as tracer:
            with pytest.raises(OSError):
                os.open("/definitely/not/here/xyz", os.O_RDONLY)
        errs = [e for e in tracer.trace if str(e.result).startswith("-1")]
        assert len(errs) == 1

    def test_trace_feeds_library_tools(self):
        """The point of host tracing: downstream tools just work."""
        from repro.analysis.summary import summarize_calls
        from repro.trace.text_format import encode_trace_file

        with tempfile.TemporaryDirectory() as tmp:
            with PyIOTracer() as tracer:
                fd = os.open(os.path.join(tmp, "f"), os.O_WRONLY | os.O_CREAT)
                os.write(fd, b"abc")
                os.close(fd)
        summary = summarize_calls(tracer.trace.events)
        assert summary["SYS_write"].n_calls == 1
        text = encode_trace_file(tracer.trace)
        assert "SYS_write" in text


class TestStraceWrapper:
    def test_empty_command_rejected(self):
        if strace_available():
            with pytest.raises(HostTracingError):
                run_under_strace([])
        else:
            with pytest.raises(StraceNotAvailable):
                run_under_strace([])

    @pytest.mark.skipif(not strace_available(), reason="strace not installed")
    def test_real_strace_round_trip(self):
        result = run_under_strace(
            ["python3", "-c", "open('/etc/hostname').read()"]
        )
        assert result.returncode == 0
        names = {e.name for e in result.bundle.all_events()}
        assert "SYS_open" in names

    @pytest.mark.skipif(strace_available(), reason="strace IS installed")
    def test_missing_strace_raises_cleanly(self):
        with pytest.raises(StraceNotAvailable):
            run_under_strace(["true"])


class TestWrapperHelpers:
    def test_strace_available_is_boolean(self):
        assert isinstance(strace_available(), bool)

    def test_host_trace_result_shape(self):
        from repro.host.strace_wrapper import HostTraceResult
        from repro.trace.records import TraceBundle

        r = HostTraceResult(returncode=0, bundle=TraceBundle(), raw_output="")
        assert r.returncode == 0
        assert r.bundle.total_events() == 0

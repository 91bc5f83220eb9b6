"""CLI tests (argparse wiring + trace file round trips through commands)."""

import pytest

from repro.cli import main
from repro.trace.binary_format import decode_trace_file as decode_bin
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile
from repro.trace.text_format import decode_trace_file as decode_text
from repro.trace.text_format import encode_trace_file


@pytest.fixture
def trace_file(tmp_path):
    tf = TraceFile(
        [
            TraceEvent(
                timestamp=1.0 + i,
                duration=0.01,
                layer=EventLayer.SYSCALL,
                name="SYS_write" if i % 2 else "SYS_read",
                args=(3, "0x800", 4096),
                result=4096,
                pid=99,
                rank=0,
                hostname="n01",
                user="jdoe",
                path="/pfs/secret/data.out",
                nbytes=4096,
            )
            for i in range(6)
        ],
        hostname="n01",
        pid=99,
        rank=0,
        framework="test",
    )
    path = tmp_path / "run.trace"
    path.write_text(encode_trace_file(tf))
    return path


class TestTable2:
    def test_text(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "LANL-Trace" in out and "//TRACE" in out

    def test_markdown(self, capsys):
        assert main(["table2", "--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("| Feature |")

    def test_csv(self, capsys):
        assert main(["table2", "--format", "csv"]) == 0
        assert "Feature,LANL-Trace" in capsys.readouterr().out

    def test_extensions_included(self, capsys):
        assert main(["table2", "--include-extensions"]) == 0
        assert "MsgTrace" in capsys.readouterr().out


class TestClassify:
    @pytest.mark.parametrize(
        "name", ["lanl-trace", "tracefs", "ptrace", "//trace", "ptrace-collector", "msgtrace"]
    )
    def test_known(self, capsys, name):
        assert main(["classify", name]) == 0
        assert "Feature" in capsys.readouterr().out

    def test_unknown(self, capsys):
        assert main(["classify", "dtrace"]) == 2
        assert "unknown framework" in capsys.readouterr().err


class TestSweepFlags:
    # chaos and zoo run/matrix read neither --quick (zoo has --smoke) nor
    # the telemetry flags, so each is a usage error there.
    @pytest.mark.parametrize(
        "flag", [["--quick"], ["--telemetry"], ["--telemetry-out", "t"]],
        ids=["quick", "telemetry", "telemetry-out"],
    )
    @pytest.mark.parametrize(
        "command", [["chaos"], ["zoo", "run", "log-append"], ["zoo", "matrix"]],
        ids=["chaos", "zoo-run", "zoo-matrix"],
    )
    def test_flags_a_command_ignores_are_usage_errors(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % " ".join(flag) in capsys.readouterr().err


class TestRecommend:
    def test_replayable_parallel(self, capsys):
        assert main(["recommend", "--replayable", "--parallel-fs"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("//TRACE")
        assert "RECOMMENDED" in out

    def test_no_constraints(self, capsys):
        assert main(["recommend"]) == 0
        assert capsys.readouterr().out.count("RECOMMENDED") == 3


class TestSummarize:
    def test_summary_output(self, capsys, trace_file):
        assert main(["summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "SYS_write" in out and "SYS_read" in out
        assert "6 events" in out

    def test_missing_file(self, capsys, tmp_path):
        assert main(["summarize", str(tmp_path / "absent.trace")]) == 1


class TestConvert:
    def test_text_to_binary_and_back(self, capsys, trace_file, tmp_path):
        binary = tmp_path / "run.bin"
        assert main(["convert", str(trace_file), str(binary)]) == 0
        tf_bin = decode_bin(binary.read_bytes())
        assert len(tf_bin) == 6

        text2 = tmp_path / "run2.trace"
        assert main(["convert", str(binary), str(text2)]) == 0
        tf_text = decode_text(text2.read_text())
        assert tf_text.events == tf_bin.events

    def test_corrupt_input_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"RTBF\x01\x00garbage")
        assert main(["convert", str(bad), str(tmp_path / "out.trace")]) == 1
        assert "error:" in capsys.readouterr().err


class TestNonUtf8Trace:
    """Bytes that are neither a binary trace nor UTF-8 text are an
    ``error:`` line and exit 1 in every command that reads a trace file,
    not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["convert", "{bad}", "{out}"],
            ["summarize", "{bad}"],
            ["anonymize", "{bad}", "{out}"],
            ["store", "ingest", "--store", "{store}", "{bad}"],
            ["zoo", "replay", "--store", "{store}", "{bad}"],
            ["service", "ingest", "--url", "http://127.0.0.1:9", "alice",
             "{good}", "{bad}"],
        ],
        ids=["convert", "summarize", "anonymize", "store-ingest", "zoo-replay",
             "service-ingest"],
    )
    def test_clean_error(self, argv, capsys, tmp_path, trace_file, monkeypatch):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"\xff\xfe\x00garbage")
        sent = []
        monkeypatch.setattr("repro.cli._http_request",
                            lambda *a, **kw: sent.append(a))
        argv = [
            a.format(bad=bad, good=trace_file, out=tmp_path / "out.trace",
                     store=tmp_path / "store")
            for a in argv
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err
        assert "Traceback" not in err
        assert sent == []  # service ingest fails before any request
        assert not (tmp_path / "store").exists()  # no empty archive left
        assert not (tmp_path / "out.trace").exists()


class TestAnonymize:
    def test_randomize(self, capsys, trace_file, tmp_path):
        out_path = tmp_path / "anon.trace"
        assert main(["anonymize", str(trace_file), str(out_path)]) == 0
        anon = decode_text(out_path.read_text())
        assert all("secret" not in (e.path or "") for e in anon)
        assert all(e.user != "jdoe" for e in anon)

    def test_encrypt_requires_key(self, capsys, trace_file, tmp_path):
        rc = main(
            ["anonymize", str(trace_file), str(tmp_path / "x.trace"), "--mode", "encrypt"]
        )
        assert rc == 2

    def test_encrypt_with_key(self, capsys, trace_file, tmp_path):
        out_path = tmp_path / "enc.trace"
        rc = main(
            [
                "anonymize", str(trace_file), str(out_path),
                "--mode", "encrypt", "--key", "00112233445566778899aabbccddeeff",
                "--fields", "user",
            ]
        )
        assert rc == 0
        anon = decode_text(out_path.read_text())
        assert all(e.user.startswith("enc:") for e in anon)
        # unselected fields untouched
        assert all("secret" in e.path for e in anon)

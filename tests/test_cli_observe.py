"""CLI telemetry flow: figure --telemetry artifacts and `repro observe`."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def telemetry_dir(tmp_path_factory):
    """One quick telemetry-enabled figure run shared by the module's tests."""
    root = tmp_path_factory.mktemp("telemetry-run")
    import contextlib
    import os

    @contextlib.contextmanager
    def chdir(path):
        old = os.getcwd()
        os.chdir(path)
        try:
            yield
        finally:
            os.chdir(old)

    with chdir(root):
        assert main(["figure", "2", "--quick", "--no-cache", "--telemetry"]) == 0
    return root / "telemetry"


def test_figure_telemetry_writes_artifacts(telemetry_dir, capsys):
    files = sorted(p.name for p in telemetry_dir.iterdir())
    # 2 quick block sizes x (combined + untraced trace + traced trace).
    assert len(files) == 6
    assert "fig2_bs65536.telemetry.json" in files
    assert "fig2_bs65536.untraced.trace.json" in files
    assert "fig2_bs65536.traced.trace.json" in files


def test_observe_combined_artifact(telemetry_dir, capsys):
    path = telemetry_dir / "fig2_bs65536.telemetry.json"
    assert main(["observe", str(path), "--validate"]) == 0
    out = capsys.readouterr().out
    assert "telemetry [untraced]" in out
    assert "telemetry [traced]" in out
    assert "kernel events" in out
    assert "call/op mix:" in out
    assert out.count("trace: valid") == 2


def test_observe_bare_trace(telemetry_dir, capsys):
    path = telemetry_dir / "fig2_bs65536.traced.trace.json"
    assert main(["observe", str(path)]) == 0
    assert "valid Chrome trace:" in capsys.readouterr().out


def test_observe_rejects_non_telemetry_json(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"hello": "world"}))
    assert main(["observe", str(bogus)]) == 1
    assert "not a telemetry artifact" in capsys.readouterr().err


def test_observe_rejects_corrupt_trace(tmp_path, capsys):
    bad = tmp_path / "bad.trace.json"
    bad.write_text(json.dumps({"traceEvents": [{"ph": "Z", "name": "x"}]}))
    assert main(["observe", str(bad)]) == 1
    assert "bad phase" in capsys.readouterr().err


#: The commands that read a telemetry artifact from a file.
ARTIFACT_READERS = {
    "observe": ["observe", "{path}"],
    "obs-diff": ["obs", "diff", "{path}", "{path}"],
    "obs-critpath": ["obs", "critpath", "{path}"],
}


def _refuses(tmp_path, capsys, command, body):
    path = tmp_path / "artifact.json"
    path.write_bytes(body)
    argv = [a.format(path=path) for a in ARTIFACT_READERS[command]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s is not JSON: " % path)
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize("command", sorted(ARTIFACT_READERS))
def test_artifact_that_is_not_utf8_is_an_error_line(tmp_path, capsys, command):
    assert "can't decode byte 0xff" in _refuses(tmp_path, capsys, command, b"\xff\xfe")


@pytest.mark.parametrize("command", sorted(ARTIFACT_READERS))
def test_artifact_that_is_not_json_is_an_error_line(tmp_path, capsys, command):
    assert "Expecting value" in _refuses(tmp_path, capsys, command, b"not json")


@pytest.mark.parametrize("command", sorted(ARTIFACT_READERS))
def test_artifact_nested_too_deep_is_an_error_line(tmp_path, capsys, command):
    # 20,001 lists pass every interpreter's limit; CPython 3.12+ parses
    # up to 10,000 (its C recursion limit).
    body = b'{"schema":"repro/telemetry/v1","x":' + b"[" * 20_001 + b"]" * 20_001 + b"}"
    assert "recursion" in _refuses(tmp_path, capsys, command, body)


def test_observe_missing_file_reports_error(tmp_path, capsys):
    assert main(["observe", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err

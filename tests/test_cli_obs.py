"""CLI observatory flow: obs diff/critpath/slice/diagnose over a figures
sweep."""

import contextlib
import json
import os

import pytest

from repro.cli import main
from repro.obs.metrics import canonical_json


@contextlib.contextmanager
def chdir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """One quick archived figures sweep shared by the module."""
    root = tmp_path_factory.mktemp("obs-run")
    with chdir(root):
        assert (
            main(
                [
                    "figures",
                    "--quick",
                    "--jobs",
                    "2",
                    "--no-cache",
                    "--telemetry",
                    "--store",
                ]
            )
            == 0
        )
    return root


class TestObsDiff:
    def test_untraced_vs_traced_names_the_tracer(self, sweep_dir, capsys):
        artifact = sweep_dir / "telemetry" / "fig2_bs65536.telemetry.json"
        assert (
            main(
                [
                    "obs",
                    "diff",
                    str(artifact),
                    str(artifact),
                    "--run-a",
                    "untraced",
                    "--run-b",
                    "traced",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "telemetry diff: fig2_bs65536.telemetry.json:untraced" in out
        assert "dominant self-time delta" in out

    def test_identical_sides_diff_to_zero(self, sweep_dir, capsys):
        artifact = sweep_dir / "telemetry" / "fig2_bs65536.telemetry.json"
        assert main(["obs", "diff", str(artifact), str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "(+0.000000 s)" in out
        assert "(no counter differences)" in out

    def test_formats_and_report_out(self, sweep_dir, capsys, tmp_path):
        artifact = sweep_dir / "telemetry" / "fig4_bs65536.telemetry.json"
        report_path = tmp_path / "diff.json"
        args = [
            "obs", "diff", str(artifact), str(artifact),
            "--run-a", "untraced", "--run-b", "traced",
        ]
        assert main(args + ["--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("# telemetry diff")
        assert main(args + ["--format", "json",
                            "--report-out", str(report_path)]) == 0
        out = capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro/obs/diff/v1"
        assert out.splitlines()[0] == canonical_json(report)

    def test_store_prefix_sources(self, sweep_dir, capsys):
        from repro.store.bank import TraceBank

        ids = TraceBank(sweep_dir / ".repro-store", create=False).run_ids()
        assert len(ids) == 6  # one archived traced run per sweep point
        assert (
            main(
                [
                    "obs",
                    "diff",
                    ids[0][:12],
                    ids[1][:12],
                    "--store",
                    str(sweep_dir / ".repro-store"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "telemetry diff: store:%s" % ids[0][:12] in out

    def test_missing_source_is_an_error(self, tmp_path, capsys):
        assert main(["obs", "diff", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestObsCritpath:
    def test_report_and_flamegraph_export(self, sweep_dir, capsys, tmp_path):
        artifact = sweep_dir / "telemetry" / "fig2_bs65536.telemetry.json"
        flame = tmp_path / "flame.txt"
        assert main(["obs", "critpath", str(artifact),
                     "--flame", str(flame)]) == 0
        out = capsys.readouterr().out
        assert "critical path (" in out
        assert "straggler:" in out
        assert "self time by layer" in out
        stacks = flame.read_text().splitlines()
        assert stacks and stacks == sorted(stacks)
        assert all(s.rsplit(" ", 1)[1].isdigit() for s in stacks)

    def test_json_report_is_canonical(self, sweep_dir, capsys):
        artifact = sweep_dir / "telemetry" / "fig3_bs65536.telemetry.json"
        assert main(["obs", "critpath", str(artifact), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro/obs/critpath/v1"
        assert report["straggler"] is not None


class TestObsSlice:
    def test_store_source_with_all_exports(self, sweep_dir, capsys, tmp_path):
        from repro.store.bank import TraceBank

        store = sweep_dir / ".repro-store"
        run_id = TraceBank(store, create=False).run_ids()[0]
        flame = tmp_path / "slice.folded"
        perfetto = tmp_path / "slice.trace.json"
        report_out = tmp_path / "slice.json"
        assert main([
            "obs", "slice", run_id[:12], "--store", str(store),
            "--flame", str(flame), "--perfetto", str(perfetto),
            "--report-out", str(report_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "causal slice [straggler]" in out
        assert "suspects (ranked):" in out
        report = json.loads(report_out.read_text())
        assert report["schema"] == "repro/obs/slice/v1"
        assert report["source"] == {"kind": "store", "run_id": run_id}
        assert report["chain"]
        assert report["dfg_context"] is not None
        trace = json.loads(perfetto.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        stacks = flame.read_text().splitlines()
        assert stacks == sorted(stacks)

    def test_file_source_with_rank_anchor(self, sweep_dir, capsys):
        artifact = sweep_dir / "telemetry" / "fig2_bs65536.telemetry.json"
        assert main(["obs", "slice", str(artifact), "--rank", "0",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["anchor"] == {"kind": "rank", "value": 0}
        assert report["track"]["rank"] == 0
        assert report["suspects"]

    def test_path_anchor_needs_a_store_source(self, sweep_dir, capsys):
        from repro.store.bank import TraceBank

        store = sweep_dir / ".repro-store"
        run_id = TraceBank(store, create=False).run_ids()[0]
        assert main(["obs", "slice", run_id[:12], "--store", str(store),
                     "--path", "/pfs/*", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["anchor"]["kind"] == "path"
        artifact = sweep_dir / "telemetry" / "fig2_bs65536.telemetry.json"
        assert main(["obs", "slice", str(artifact), "--path", "/pfs/*"]) == 1
        assert "store-archived" in capsys.readouterr().err

    def test_anchor_flags_are_mutually_exclusive(self, sweep_dir, capsys):
        with pytest.raises(SystemExit):
            main(["obs", "slice", "whatever", "--rank", "0", "--op", "x"])

    def test_unknown_prefix_is_an_error(self, sweep_dir, capsys):
        assert main(["obs", "slice", "zzzzzz", "--store",
                     str(sweep_dir / ".repro-store")]) == 1
        assert "error:" in capsys.readouterr().err


class TestObsDiagnose:
    def test_diagnose_smoke_over_the_sweep_archive(self, sweep_dir, capsys,
                                                   tmp_path):
        # The figure sweep archives six singleton groups (one per figure
        # point): nothing is comparable, so nothing may be flagged.
        report_out = tmp_path / "diagnose.json"
        assert main([
            "obs", "diagnose", "--store", str(sweep_dir / ".repro-store"),
            "--jobs", "2", "--report-out", str(report_out),
            "--fail-on-outlier",
        ]) == 0
        out = capsys.readouterr().out
        assert "diagnosed 6 run(s)" in out
        report = json.loads(report_out.read_text())
        assert report["schema"] == "repro/obs/diagnose/v1"
        assert report["summary"]["outliers"] == 0
        assert report["summary"]["insufficient_groups"] == 6

    def test_json_output_is_canonical(self, sweep_dir, capsys):
        assert main(["obs", "diagnose", "--store",
                     str(sweep_dir / ".repro-store"), "--json"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert out.strip() == canonical_json(report)

    def test_missing_store_is_an_error(self, tmp_path, capsys):
        assert main(["obs", "diagnose", "--store",
                     str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err


class TestObserveHint:
    def test_zero_span_payload_gets_guidance(self, tmp_path, capsys):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.perfetto import to_chrome_trace
        from repro.obs.spans import SpanRecorder

        reg = MetricsRegistry()
        reg.inc("des.events_dispatched", 5)
        payload = {
            "schema": "repro/telemetry/v1",
            "metrics": reg.snapshot(end_time=1.0),
            "trace": to_chrome_trace(SpanRecorder()),
        }
        path = tmp_path / "spanless.telemetry.json"
        path.write_text(canonical_json(payload))
        assert main(["observe", str(path)]) == 0
        assert "no spans recorded" in capsys.readouterr().out

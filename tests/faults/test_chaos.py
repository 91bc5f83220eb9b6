"""Chaos harness: outcome classification, retries, matrix report, CLI."""

import json

import pytest

from repro.errors import FaultError
from repro.faults.chaos import (
    CHAOS_FRAMEWORKS,
    CHAOS_MATRICES,
    build_chaos_specs,
    render_chaos_report,
    run_chaos_matrix,
)
from repro.faults.schedule import DiskErrorStorm, FaultSchedule, NodeCrash
from repro.harness.experiment import run_once
from repro.harness.figures import paper_testbed
from repro.harness.parallel import RunSpec, execute_spec
from repro.units import KiB
from repro.workloads.mpi_io_test import mpi_io_test

QUICK_ARGS = {"path": "/pfs/x.out", "block_size": 64 * KiB, "nobj": 4}


def _run(schedule, horizon=30.0, **kw):
    params = dict(
        config=paper_testbed(seed=0, nprocs=2), nprocs=2, seed=0,
        horizon=horizon,
    )
    params.update(kw)
    return run_once(mpi_io_test, dict(QUICK_ARGS), faults=schedule, **params)


def _untraced_leg(schedule, horizon, retries):
    """(status, attempts) of a point's untraced leg, run by execute_spec."""
    point = execute_spec(RunSpec.create(
        "ptrace", "mpi_io_test", QUICK_ARGS,
        config=paper_testbed(seed=0, nprocs=2), nprocs=2, seed=0,
        faults=schedule, sim_timeout=horizon, retries=retries,
    ))
    leg = point.chaos["untraced"]
    return leg["status"], leg["attempts"]


class TestClassification:
    def test_no_faults_completes(self):
        outcome = _run(FaultSchedule())
        assert outcome.status == "completed"
        assert outcome.error is None
        assert outcome.stats.elapsed > 0
        assert outcome.killed_ranks == []
        assert outcome.faults["counters"] == {}

    def test_node_crash_classified_with_killed_ranks(self):
        outcome = _run(FaultSchedule.of(NodeCrash(at=0.05, node=1)))
        assert outcome.status == "node-crash"
        assert "crashed at t=0.05" in outcome.error
        assert outcome.killed_ranks == [1]
        assert outcome.faults["counters"]["node.crashes"] == 1

    def test_eio_storm_classified_as_io_error(self):
        sched = FaultSchedule.of(
            DiskErrorStorm(at=0.0, duration=10.0, error_rate=1.0, mount="/pfs")
        )
        outcome = _run(sched)
        assert outcome.status == "io-error"
        assert "InjectedIOError" in outcome.error

    def test_too_small_horizon_times_out(self):
        outcome = _run(FaultSchedule(), horizon=0.001)
        assert outcome.status == "timeout"
        assert outcome.pending_ranks  # someone was still running
        assert "0.001" in outcome.error

    def test_late_event_rejected_against_horizon(self):
        with pytest.raises(FaultError, match="never fire"):
            _run(FaultSchedule.of(NodeCrash(at=50.0, node=0)), horizon=1.0)


class TestRetryPolicy:
    def test_timeout_retries_with_doubled_horizon(self):
        status, attempts = _untraced_leg(FaultSchedule(), horizon=0.02, retries=5)
        assert status == "completed"
        assert attempts > 1  # 0.02s is not enough; a doubled budget was

    def test_deterministic_failures_do_not_retry(self):
        status, attempts = _untraced_leg(
            FaultSchedule.of(NodeCrash(at=0.05, node=1)), horizon=30.0, retries=5
        )
        assert status == "node-crash"
        assert attempts == 1

    def test_retry_budget_exhausts_to_timeout(self):
        status, attempts = _untraced_leg(FaultSchedule(), horizon=1e-5, retries=1)
        assert status == "timeout"
        assert attempts == 2


class TestExecuteFaultSpec:
    def test_spec_with_faults_routes_to_chaos_and_annotates(self):
        specs = build_chaos_specs("smoke", frameworks=("lanl-trace",))
        by_name = {s.faults.name: s for s in specs}
        point = execute_spec(by_name["node-crash"])
        assert point.error is not None
        assert point.error.startswith("untraced: node-crash")
        assert point.chaos["scenario"] == "node-crash"
        assert point.chaos["untraced"]["killed_ranks"] == [1]
        # The traced leg still ran: the partial capture is the artifact.
        assert point.chaos["traced"]["status"] == "node-crash"
        assert point.chaos["traced"]["bundle_metadata"] is not None

    def test_baseline_spec_completes_without_error(self):
        specs = build_chaos_specs("smoke", frameworks=("ptrace",))
        point = execute_spec(specs[0])
        assert point.error is None
        assert point.chaos["scenario"] == "baseline"
        assert point.chaos["untraced"]["status"] == "completed"
        assert point.attempts == 1


class TestMatrix:
    def test_unknown_matrix_named_in_error(self):
        with pytest.raises(FaultError, match="unknown chaos matrix"):
            build_chaos_specs("no-such-matrix")

    def test_specs_cross_frameworks_with_scenarios(self):
        specs = build_chaos_specs("smoke")
        assert len(specs) == len(CHAOS_FRAMEWORKS) * len(CHAOS_MATRICES["smoke"])
        # Framework-major order, scenarios in declaration order inside.
        assert specs[0].framework.name == CHAOS_FRAMEWORKS[0]
        names = [s.faults.name or "baseline" for s in specs]
        per_fw = [sc.schedule.name or "baseline" for sc in CHAOS_MATRICES["smoke"]]
        assert names == per_fw * len(CHAOS_FRAMEWORKS)

    def test_smoke_matrix_report_for_one_framework(self):
        report = run_chaos_matrix("smoke", frameworks=("ptrace",))
        assert report["schema"] == "repro/chaos/v1"
        rows = report["rows"]
        assert [r["scenario"] for r in rows] == [
            "baseline", "node-crash", "partition", "disk-storm", "eio-storm"
        ]
        by_scenario = {r["scenario"]: r for r in rows}
        assert by_scenario["baseline"]["survived"]
        assert by_scenario["baseline"]["overhead_delta"] == 0.0
        assert by_scenario["partition"]["survived"]
        assert by_scenario["partition"]["fault_counters"]["net.partitions"] == 1
        assert not by_scenario["node-crash"]["survived"]
        assert "node-crash" in by_scenario["node-crash"]["error"]
        summary = report["summary"]
        assert summary["points"] == 5
        assert summary["survived"] + summary["failed_annotated"] == 5
        # Render covers both completed and FAILED rows.
        text = render_chaos_report(report)
        assert "Chaos matrix 'smoke'" in text
        assert "FAILED:" in text
        assert text.count("\n") >= 8


class TestChaosCLI:
    def test_chaos_command_writes_report(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "chaos.json"
        rc = main([
            "chaos", "--matrix", "smoke", "--frameworks", "ptrace",
            "--no-cache", "--report-out", str(out),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "Chaos matrix 'smoke'" in printed
        report = json.loads(out.read_text())
        assert report["schema"] == "repro/chaos/v1"
        assert report["frameworks"] == ["ptrace"]

    def test_chaos_store_archives_per_scenario_bundles(self, capsys, tmp_path):
        from repro.cli import main
        from repro.store.bank import TraceBank

        store = tmp_path / "chaos-bank"
        rc = main([
            "chaos", "--matrix", "smoke", "--frameworks", "ptrace",
            "--no-cache", "--store", str(store),
            "--report-out", str(tmp_path / "chaos.json"),
        ])
        assert rc == 0
        assert "archived 5 run(s) into the trace store" in capsys.readouterr().out
        bank = TraceBank(store, create=False)
        manifests = bank.manifests()
        assert len(manifests) == 5  # every scenario, crashed ones included
        by_scenario = {str(m.meta.get("scenario")): m for m in manifests}
        assert sorted(by_scenario) == [
            "baseline", "disk-storm", "eio-storm", "node-crash", "partition"
        ]
        assert all(str(m.meta.get("kind")) == "chaos" for m in manifests)
        # The crashed scenario still archives its partial capture.
        assert by_scenario["node-crash"].n_events > 0
        assert by_scenario["node-crash"].n_events < by_scenario["baseline"].n_events
        assert bank.verify()["ok"]

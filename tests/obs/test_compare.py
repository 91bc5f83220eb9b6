"""Cross-run diffing: counters, histograms, span alignment, track drift."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from obsutil import make_payload

import repro
from repro.errors import TelemetryError
from repro.faults.schedule import DiskSlowdown, FaultSchedule
from repro.harness.figures import paper_testbed
from repro.harness.parallel import RunSpec, execute_spec
from repro.obs.compare import compare_payloads, render_diff
from repro.obs.metrics import canonical_json
from repro.units import KiB

SPANS = [
    (0, 0, "MPI_File_write_all", "libcall", 0.0, 0.010),
    (0, 0, "SYS_write", "syscall", 0.002, 0.006),
    (1, 1, "MPI_File_write_all", "libcall", 0.0, 0.012),
]


class TestIdenticalPayloads:
    def test_diff_is_empty_and_deterministic(self):
        payload = make_payload(SPANS, counters={"os.calls.syscall": 1})
        a = compare_payloads(payload, payload)
        b = compare_payloads(payload, payload)
        assert canonical_json(a) == canonical_json(b)
        assert a["schema"] == "repro/obs/diff/v1"
        assert a["end_time_delta"] == 0.0
        assert a["counters"] == []
        assert a["histograms"] == []
        assert a["spans"] == []
        assert a["dominant_layer"] is None
        assert a["tracks"] == {"only_a": [], "only_b": []}
        assert a["tracepoints"] == {"only_a": [], "only_b": []}


class TestHashSeed:
    def test_diff_bytes_do_not_follow_the_hash_seed(self, tmp_path):
        # Dozens of buckets on each side: summed in set order, hash seeds
        # 0, 1 and 2 each printed a different last digit of the divergence.
        a = make_payload(observations={"os.call_seconds": [
            2.0 ** -k for k in range(1, 30) for _ in range(k % 7 + 1)]})
        b = make_payload(observations={"os.call_seconds": [
            2.0 ** -k for k in range(3, 33) for _ in range(k % 5 + 1)]})
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        src = str(Path(repro.__file__).resolve().parents[1])
        outs = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "obs", "diff", "a.json",
                 "b.json", "--format", "json"],
                cwd=str(tmp_path), env=env, capture_output=True, timeout=60,
                check=True,
            )
            outs.add(proc.stdout)
        assert len(outs) == 1
        (row,) = json.loads(outs.pop())["histograms"]
        assert row["name"] == "os.call_seconds" and 0.0 < row["divergence"] < 1.0


class TestCounters:
    def test_deltas_and_ratios(self):
        a = make_payload(counters={"x": 2})
        b = make_payload(counters={"x": 5, "y": 1})
        rows = {r["name"]: r for r in compare_payloads(a, b)["counters"]}
        assert rows["x"]["delta"] == 3
        assert rows["x"]["ratio"] == pytest.approx(2.5)
        assert rows["y"]["a"] == 0
        assert rows["y"]["ratio"] is None

    def test_tracepoint_drift_tracks_what_fired(self):
        a = make_payload(counters={"both": 1, "gone": 2})
        b = make_payload(counters={"both": 1, "new": 3})
        tp = compare_payloads(a, b)["tracepoints"]
        assert tp == {"only_a": ["gone"], "only_b": ["new"]}


class TestHistograms:
    def test_disjoint_shapes_diverge_fully(self):
        a = make_payload(observations={"os.call_seconds": [1e-6] * 4})
        b = make_payload(observations={"os.call_seconds": [1.0] * 4})
        (row,) = compare_payloads(a, b)["histograms"]
        assert row["divergence"] == pytest.approx(1.0)

    def test_same_shape_different_count_has_zero_divergence(self):
        a = make_payload(observations={"h": [0.5] * 2})
        b = make_payload(observations={"h": [0.5] * 4})
        (row,) = compare_payloads(a, b)["histograms"]
        assert row["divergence"] == 0.0
        assert (row["count_a"], row["count_b"]) == (2, 4)

    def test_missing_histogram_counts_as_disjoint(self):
        a = make_payload()
        b = make_payload(observations={"h": [0.5]})
        (row,) = compare_payloads(a, b)["histograms"]
        assert row["divergence"] == pytest.approx(1.0)


class TestSpanAlignment:
    def test_keyed_by_node_rank_name(self):
        slower = [
            (0, 0, "MPI_File_write_all", "libcall", 0.0, 0.010),
            (0, 0, "SYS_write", "syscall", 0.002, 0.008),
            (1, 1, "MPI_File_write_all", "libcall", 0.0, 0.012),
        ]
        report = compare_payloads(make_payload(SPANS), make_payload(slower))
        rows = {(r["node"], r["rank"], r["name"]): r for r in report["spans"]}
        key = (0, 0, "SYS_write")
        assert rows[key]["self_delta"] == pytest.approx(0.002)
        # Rank 1 is identical in both runs: no row for it.
        assert (1, 1, "MPI_File_write_all") not in rows

    def test_dominant_layer_is_largest_self_time_mover(self):
        slower = [
            (0, 0, "MPI_File_write_all", "libcall", 0.0, 0.030),
            (0, 0, "SYS_write", "syscall", 0.002, 0.026),
            (1, 1, "MPI_File_write_all", "libcall", 0.0, 0.012),
        ]
        report = compare_payloads(make_payload(SPANS), make_payload(slower))
        assert report["dominant_layer"]["layer"] == "simfs"
        assert report["dominant_layer"]["delta"] == pytest.approx(0.020)
        layers = {r["layer"]: r for r in report["layers"]}
        assert layers["simfs"]["delta"] == pytest.approx(0.020)

    def test_missing_rank_is_reported_not_raised(self):
        # Crashed-rank capture: payload B simply lacks rank 1's track.
        report = compare_payloads(make_payload(SPANS), make_payload(SPANS[:2]))
        assert report["a"]["n_tracks"] == 2
        assert report["b"]["n_tracks"] == 1
        (row,) = report["tracks"]["only_a"]
        assert (row["node"], row["rank"]) == (1, 1)
        assert "rank 1" in row["track"]
        assert report["tracks"]["only_b"] == []

    def test_rejects_non_payload_inputs(self):
        good = make_payload(SPANS)
        with pytest.raises(TelemetryError):
            compare_payloads({"schema": "nope"}, good)
        with pytest.raises(TelemetryError):
            compare_payloads(good, {"hello": "world"})


class TestRendering:
    def test_text_and_markdown(self):
        slower = [(0, 0, "SYS_write", "syscall", 0.0, 0.02)]
        base = [(0, 0, "SYS_write", "syscall", 0.0, 0.01)]
        report = compare_payloads(
            make_payload(base), make_payload(slower), "before", "after"
        )
        text = render_diff(report)
        assert "telemetry diff: before -> after" in text
        assert "dominant self-time delta: simfs" in text
        md = render_diff(report, markdown=True)
        assert md.startswith("# telemetry diff")
        assert "| layer | before | after | delta |" in md

    def test_row_limit_is_announced(self):
        a = make_payload(counters={"c%02d" % i: 1 for i in range(30)})
        b = make_payload(counters={"c%02d" % i: 2 for i in range(30)})
        text = render_diff(compare_payloads(a, b), limit=5)
        assert "... 25 more rows in the JSON report" in text


class TestDiskSlowdownAcceptance:
    """The ISSUE's acceptance scenario: a DiskSlowdown fault must show up
    as a dominant simfs self-time delta against the clean baseline."""

    ARGS = {"path": "/pfs/chaos.out", "block_size": 64 * KiB, "nobj": 4}

    def _spec(self, faults=None):
        return RunSpec.create(
            "lanl-trace",
            "mpi_io_test",
            dict(self.ARGS),
            config=paper_testbed(seed=0, nprocs=2),
            nprocs=2,
            seed=0,
            telemetry=True,
            faults=faults,
            sim_timeout=30.0 if faults is not None else None,
        )

    def test_disk_slowdown_pinpoints_simfs(self):
        baseline = execute_spec(self._spec())
        slowdown = FaultSchedule.of(
            DiskSlowdown(at=0.0, duration=0.5, extra_latency=2e-3),
            name="slow-disk",
        )
        faulted = execute_spec(self._spec(faults=slowdown))
        assert faulted.telemetry is not None  # chaos path exports telemetry too
        report = compare_payloads(
            baseline.telemetry["traced"], faulted.telemetry["traced"]
        )
        assert report["dominant_layer"]["layer"] == "simfs"
        assert report["dominant_layer"]["delta"] > 0.0
        assert report["end_time_delta"] > 0.0

"""Harness tests: testbed determinism, overhead protocol, reporting."""

import pytest

from repro.core.overhead import measure_overhead_report
from repro.frameworks.lanltrace.framework import LANLTrace, LANLTraceConfig
from repro.harness.experiment import (
    OverheadMeasurement,
    RunOutcome,
    measure_overhead,
    run_untraced,
)
from repro.harness.figures import (
    FIGURE_PATTERNS,
    PAPER_BLOCK_SIZES,
    figure_series,
    paper_testbed,
)
from repro.harness.parallel import PointResult, RunStats, sweep_args_for_block_size
from repro.harness.report import (
    render_figure,
    render_measurements,
    render_overhead_range,
)
from repro.harness.testbed import build_testbed
from repro.machine import TestbedConfig
from repro.units import KiB, MiB
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern

SMALL_ARGS = {
    "pattern": AccessPattern.N_TO_N,
    "block_size": 64 * KiB,
    "nobj": 4,
    "path": "/pfs/out",
}


class TestTestbed:
    def test_standard_mounts(self):
        tb = build_testbed()
        assert tb.vfs.resolve("/pfs/x")[0] is tb.pfs
        assert tb.vfs.resolve("/home/x")[0] is tb.nfs
        assert tb.vfs.resolve("/tmp/x")[0] is tb.scratch

    def test_optional_mounts(self):
        tb = build_testbed(TestbedConfig(with_nfs=False, with_scratch=False))
        assert tb.nfs is None and tb.scratch is None

    def test_seed_override(self):
        tb = build_testbed(seed=77)
        assert tb.cluster.config.seed == 77

    def test_identical_seeds_identical_machines(self):
        a, b = build_testbed(seed=5), build_testbed(seed=5)
        for na, nb in zip(a.cluster.nodes, b.cluster.nodes):
            assert na.clock.skew == nb.clock.skew


class TestOverheadProtocol:
    def test_untraced_run_outcome(self):
        out = run_untraced(mpi_io_test, SMALL_ARGS, nprocs=4)
        assert out.elapsed > 0
        assert out.bytes_moved == 4 * 4 * 64 * KiB
        assert out.aggregate_bandwidth > 0

    def test_deterministic_repetition(self):
        a = run_untraced(mpi_io_test, SMALL_ARGS, nprocs=4, seed=3)
        b = run_untraced(mpi_io_test, SMALL_ARGS, nprocs=4, seed=3)
        assert a.elapsed == b.elapsed

    def test_measure_overhead_pairs_identical_machines(self):
        m = measure_overhead(
            lambda: LANLTrace(LANLTraceConfig()),
            mpi_io_test, SMALL_ARGS, nprocs=4,
        )
        assert m.traced.elapsed > m.untraced.elapsed
        assert 0 < m.bandwidth_overhead < 1
        assert m.elapsed_overhead > 0
        assert m.params["block_size"] == 64 * KiB

    def test_overhead_formula(self):
        point = PointResult(
            params=(), untraced=RunStats(10.0, 0, 0), traced=RunStats(12.4, 0, 0)
        )
        assert point.elapsed_overhead == pytest.approx(0.24)

    def test_sweep_holds_bytes_constant(self):
        ms = [
            measure_overhead(
                lambda: LANLTrace(LANLTraceConfig()),
                mpi_io_test,
                sweep_args_for_block_size(
                    {"pattern": AccessPattern.N_TO_N, "path": "/pfs/out"},
                    bs,
                    total_bytes_per_rank=1 * MiB,
                ),
                nprocs=2,
            )
            for bs in [64 * KiB, 256 * KiB]
        ]
        assert ms[0].params["nobj"] == 16
        assert ms[1].params["nobj"] == 4
        for m in ms:
            assert m.untraced.bytes_moved == 2 * 1 * MiB

    def test_payload_counts_reads_and_writes_independently(self):
        from dataclasses import dataclass

        from repro.harness.experiment import _total_payload

        @dataclass
        class ReadOnly:
            bytes_read: int

        @dataclass
        class WriteOnly:
            bytes_written: int

        @dataclass
        class Both:
            bytes_written: int
            bytes_read: int

        job = run_untraced(mpi_io_test, SMALL_ARGS, nprocs=2).job
        job.results[:] = [ReadOnly(100), WriteOnly(10), Both(1, 2), None]
        # A read-only rank contributes its bytes_read even without any
        # bytes_written attribute (regression: it used to count as 0).
        assert _total_payload(job) == 100 + 10 + 3

    def test_read_back_run_moves_payload_both_ways(self):
        args = dict(SMALL_ARGS, read_back=True)
        out = run_untraced(mpi_io_test, args, nprocs=2)
        # 2 ranks x 4 objects x 64KiB, written then read back
        assert out.bytes_moved == 2 * 2 * 4 * 64 * KiB

    def test_run_outcome_records_events_fingerprint(self):
        a = run_untraced(mpi_io_test, SMALL_ARGS, nprocs=2, seed=3)
        b = run_untraced(mpi_io_test, SMALL_ARGS, nprocs=2, seed=3)
        assert a.events_executed > 0
        assert a.events_executed == b.events_executed

    def test_measured_overhead_report_cell(self):
        report = measure_overhead_report(
            lambda: LANLTrace(LANLTraceConfig()),
            block_sizes=[64 * KiB],
            patterns=[AccessPattern.N_TO_N],
            total_bytes_per_rank=512 * KiB,
            nprocs=2,
        )
        assert report.min_percent is not None
        assert report.max_percent >= report.min_percent
        assert "%" in report.render()


class TestFigureSeries:
    def test_figure_patterns_match_paper(self):
        assert FIGURE_PATTERNS[2] is AccessPattern.N_TO_1_STRIDED
        assert FIGURE_PATTERNS[3] is AccessPattern.N_TO_1_NONSTRIDED
        assert FIGURE_PATTERNS[4] is AccessPattern.N_TO_N
        assert 64 * KiB in PAPER_BLOCK_SIZES
        assert 8192 * KiB in PAPER_BLOCK_SIZES

    def test_bad_figure_number(self):
        with pytest.raises(ValueError):
            figure_series(1)

    def test_small_series_has_expected_shape(self):
        series = figure_series(
            4,
            block_sizes=[64 * KiB, 512 * KiB],
            total_bytes_per_rank=2 * MiB,
            nprocs=4,
        )
        assert series.block_sizes() == [64 * KiB, 512 * KiB]
        small, big = series.points
        # overhead falls with block size; bandwidth rises
        assert small.bandwidth_overhead > big.bandwidth_overhead
        assert small.untraced_bandwidth < big.untraced_bandwidth


class TestReporting:
    def test_render_figure(self):
        series = figure_series(
            3, block_sizes=[64 * KiB], total_bytes_per_rank=512 * KiB, nprocs=2
        )
        text = render_figure(series)
        assert "Figure 3" in text
        assert "non-strided" in text
        assert "64KiB" in text

    def test_render_measurements(self):
        m = measure_overhead(
            lambda: LANLTrace(LANLTraceConfig()),
            mpi_io_test, SMALL_ARGS, nprocs=2,
        )
        text = render_measurements([m], label="demo")
        assert "demo" in text and "64KiB" in text

    def test_render_overhead_range(self):
        text = render_overhead_range({"min": 0.24, "max": 2.22}, 24, 222)
        assert "24% - 222%" in text
        assert "paper" in text

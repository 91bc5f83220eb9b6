"""iostat-style interval statistics tests."""

import pytest

from repro.analysis.iostat import Interval, iostat, render_iostat
from repro.errors import TraceError
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceBundle, TraceFile


def io_ev(ts, nbytes=1000, dur=0.005):
    return TraceEvent(
        timestamp=ts, duration=dur, layer=EventLayer.SYSCALL,
        name="SYS_write", nbytes=nbytes,
    )


class TestBuckets:
    def test_empty(self):
        assert iostat([]) == []
        assert "no data events" in render_iostat([])

    def test_interval_validation(self):
        with pytest.raises(TraceError):
            iostat([io_ev(0.0)], interval=0)

    def test_single_bucket(self):
        out = iostat([io_ev(0.0), io_ev(0.01)], interval=1.0)
        assert len(out) == 1
        iv = out[0]
        assert iv.n_ops == 2
        assert iv.nbytes == 2000
        assert iv.bandwidth == pytest.approx(2000.0)
        assert iv.iops == pytest.approx(2.0)
        assert iv.mean_latency == pytest.approx(0.005)

    def test_multiple_buckets_with_gap(self):
        out = iostat([io_ev(0.0), io_ev(0.95)], interval=0.1)
        assert len(out) == 10
        assert out[0].n_ops == 1
        assert all(iv.n_ops == 0 for iv in out[1:9])
        assert out[9].n_ops == 1
        assert out[5].bandwidth == 0.0
        assert out[5].mean_latency == 0.0

    def test_buckets_aligned_to_first_event(self):
        out = iostat([io_ev(5.0), io_ev(5.15)], interval=0.1)
        assert out[0].start == pytest.approx(5.0)
        assert len(out) == 2

    def test_accepts_bundle_and_file(self):
        tf = TraceFile([io_ev(0.0)])
        bundle = TraceBundle(files={0: tf, 1: TraceFile([io_ev(0.02)])})
        assert iostat(tf, interval=1.0)[0].n_ops == 1
        assert iostat(bundle, interval=1.0)[0].n_ops == 2

    def test_non_io_ignored(self):
        meta = TraceEvent(
            timestamp=0.0, duration=0.0, layer=EventLayer.SYSCALL, name="SYS_stat64"
        )
        assert iostat([meta]) == []

    def test_render(self):
        text = render_iostat(iostat([io_ev(0.0, nbytes=1 << 20)], interval=1.0))
        assert "MB/s" in text and "1.00" in text


class TestOnTracedRun:
    def test_bandwidth_series_from_real_trace(self):
        from repro.frameworks.ptrace.framework import PTrace
        from repro.harness.experiment import run_traced
        from repro.units import KiB
        from repro.workloads.mpi_io_test import mpi_io_test
        from repro.workloads.patterns import AccessPattern

        _, traced = run_traced(
            PTrace, mpi_io_test,
            {"pattern": AccessPattern.N_TO_N, "block_size": 64 * KiB,
             "nobj": 32, "path": "/pfs/out"},
            nprocs=2,
        )
        series = iostat(traced.bundle, interval=0.05)
        assert series
        total = sum(iv.nbytes for iv in series)
        assert total == 2 * 32 * 64 * KiB
        # the busy middle beats the edges
        assert max(iv.bandwidth for iv in series) > 0

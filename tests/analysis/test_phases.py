"""I/O phase detection tests."""

import pytest

from repro.analysis.phases import Phase, detect_phases, phase_summary
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile


def io_ev(ts, nbytes=1000, dur=0.01, name="SYS_write"):
    return TraceEvent(
        timestamp=ts, duration=dur, layer=EventLayer.SYSCALL,
        name=name, nbytes=nbytes,
    )


def meta_ev(ts, name="SYS_stat64"):
    return TraceEvent(timestamp=ts, duration=0.001, layer=EventLayer.SYSCALL, name=name)


class TestDetect:
    def test_empty(self):
        assert detect_phases([]) == []
        assert detect_phases([meta_ev(1.0)]) == []
        assert "no I/O phases" in phase_summary([])

    def test_single_burst(self):
        phases = detect_phases([io_ev(0.0), io_ev(0.02), io_ev(0.04)])
        assert len(phases) == 1
        p = phases[0]
        assert p.kind == "io"
        assert p.n_events == 3
        assert p.bytes_moved == 3000
        assert p.start == 0.0 and p.end == pytest.approx(0.05)

    def test_gap_splits_bursts(self):
        phases = detect_phases(
            [io_ev(0.0), io_ev(0.02), io_ev(1.0), io_ev(1.02)], gap_threshold=0.05
        )
        kinds = [p.kind for p in phases]
        assert kinds == ["io", "compute", "io"]
        compute = phases[1]
        assert compute.start == pytest.approx(0.03)
        assert compute.end == pytest.approx(1.0)
        assert compute.bytes_moved == 0

    def test_metadata_does_not_break_burst(self):
        events = [io_ev(0.0), meta_ev(0.5), io_ev(0.02)]
        phases = detect_phases(events, gap_threshold=0.05)
        assert len(phases) == 1

    def test_unsorted_events_handled(self):
        phases = detect_phases([io_ev(1.0), io_ev(0.0)], gap_threshold=2.0)
        assert len(phases) == 1
        assert phases[0].start == 0.0

    def test_accepts_trace_file(self):
        tf = TraceFile([io_ev(0.0), io_ev(0.02)])
        assert len(detect_phases(tf)) == 1

    def test_bandwidth_property(self):
        p = Phase("io", 0.0, 2.0, bytes_moved=4000, n_events=4)
        assert p.bandwidth == 2000.0
        assert Phase("compute", 0.0, 0.0).bandwidth == 0.0

    def test_summary_rendering(self):
        phases = detect_phases(
            [io_ev(0.0), io_ev(1.0)], gap_threshold=0.05
        )
        text = phase_summary(phases)
        assert "io" in text and "compute" in text
        assert "1 compute gap(s)" in text


class TestOnRealWorkload:
    def test_checkpoint_workload_alternates(self):
        """The checkpoint workload's compute/write structure is visible."""
        from repro.frameworks.ptrace.framework import PTrace
        from repro.harness.experiment import run_traced
        from repro.units import KiB
        from repro.workloads.generators import checkpoint

        _, traced = run_traced(
            PTrace,
            checkpoint,
            {"path": "/pfs/ck", "phases": 3, "compute_time": 0.3,
             "block_size": 64 * KiB, "blocks_per_phase": 8},
            nprocs=2,
        )
        phases = detect_phases(traced.bundle.files[0], gap_threshold=0.1)
        io_phases = [p for p in phases if p.kind == "io"]
        compute_phases = [p for p in phases if p.kind == "compute"]
        assert len(io_phases) == 3
        assert len(compute_phases) == 2
        # compute gaps are at least as long as the configured compute time
        assert all(p.duration >= 0.25 for p in compute_phases)
        # each I/O phase moved the per-phase bytes
        assert all(p.bytes_moved == 8 * 64 * KiB for p in io_phases)

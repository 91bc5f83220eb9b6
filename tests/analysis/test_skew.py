"""Skew/drift estimation tests: the LANL-Trace timing-job pipeline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.skew import ClockEstimate, correct_timestamp, estimate_clocks
from repro.cluster.clock import Clock
from repro.errors import TraceError
from repro.trace.records import BarrierStamp


def stamps_from_clocks(clocks, barrier_times, spread=0.0):
    """Synthesize barrier stamps: all ranks exit at (about) the same true time."""
    stamps = []
    for label_i, t in enumerate(barrier_times):
        for rank, clock in enumerate(clocks):
            exit_true = t + spread * rank
            stamps.append(
                BarrierStamp(
                    barrier_label="barrier %d" % label_i,
                    rank=rank,
                    hostname="h%d" % rank,
                    pid=100 + rank,
                    entered_at=clock.local(exit_true - 0.001),
                    exited_at=clock.local(exit_true),
                )
            )
    return stamps


class TestEstimation:
    def test_reference_rank_is_identity(self):
        clocks = [Clock(), Clock(skew=0.5)]
        est = estimate_clocks(stamps_from_clocks(clocks, [10.0, 20.0]))
        assert est[0].alpha == 0.0 and est[0].beta == 1.0

    def test_pure_skew_recovered(self):
        clocks = [Clock(epoch=1000.0), Clock(epoch=1000.0, skew=0.25)]
        est = estimate_clocks(stamps_from_clocks(clocks, [10.0, 50.0]))
        # rank 1's local reading maps back onto rank 0's timeline
        local = clocks[1].local(30.0)
        ref = clocks[0].local(30.0)
        assert correct_timestamp(est, 1, local) == pytest.approx(ref, abs=1e-9)
        assert not est[1].has_drift

    def test_drift_detected_with_two_barriers(self):
        clocks = [Clock(), Clock(drift=5e-5)]
        est = estimate_clocks(stamps_from_clocks(clocks, [0.0, 100.0]))
        assert est[1].has_drift
        assert est[1].beta == pytest.approx(1.0 / (1.0 + 5e-5), rel=1e-9)

    def test_single_barrier_gives_skew_only(self):
        clocks = [Clock(), Clock(skew=1.0, drift=1e-4)]
        est = estimate_clocks(stamps_from_clocks(clocks, [10.0]))
        assert est[1].beta == 1.0  # cannot see drift from one barrier

    def test_no_usable_stamps_raises(self):
        with pytest.raises(TraceError):
            estimate_clocks([])
        # barrier exists but reference rank absent
        stamps = stamps_from_clocks([Clock(), Clock()], [1.0])
        only_rank1 = [s for s in stamps if s.rank == 1]
        with pytest.raises(TraceError):
            estimate_clocks(only_rank1)

    def test_unknown_rank_correction_raises(self):
        est = {0: ClockEstimate(0, 0.0, 1.0)}
        with pytest.raises(TraceError):
            correct_timestamp(est, 5, 1.0)

    @given(
        skews=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=6),
        drifts=st.lists(st.floats(-1e-4, 1e-4), min_size=2, max_size=6),
        t_test=st.floats(5.0, 500.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_recovery_property(self, skews, drifts, t_test):
        """Any affine clock family is recovered from two exact barriers."""
        n = min(len(skews), len(drifts))
        clocks = [
            Clock(epoch=1_159_808_000.0, skew=skews[i], drift=drifts[i])
            for i in range(n)
        ]
        est = estimate_clocks(stamps_from_clocks(clocks, [1.0, 600.0]))
        for rank in range(n):
            local = clocks[rank].local(t_test)
            ref = clocks[0].local(t_test)
            assert correct_timestamp(est, rank, local) == pytest.approx(
                ref, abs=1e-5
            )

    def test_barrier_exit_spread_bounds_error(self):
        """Realistic barriers release ranks microseconds apart; the
        estimate degrades gracefully, not catastrophically."""
        clocks = [Clock(), Clock(skew=0.05), Clock(skew=-0.02)]
        stamps = stamps_from_clocks(clocks, [1.0, 30.0], spread=20e-6)
        est = estimate_clocks(stamps)
        for rank in (1, 2):
            local = clocks[rank].local(15.0)
            ref = clocks[0].local(15.0)
            err = abs(correct_timestamp(est, rank, local) - ref)
            assert err < 1e-3  # bounded by the barrier spread, not the skew


class TestEndToEndWithLANLTrace:
    """The full pipeline: timing job stamps -> estimates -> ordering."""

    def test_skew_correction_recovers_event_order(self):
        from repro.analysis.timeline import global_timeline
        from repro.frameworks.lanltrace.framework import LANLTrace, LANLTraceConfig
        from repro.harness.experiment import run_traced
        from repro.machine import ClusterConfig, TestbedConfig
        from repro.workloads.mpi_io_test import mpi_io_test
        from repro.workloads.patterns import AccessPattern

        config = TestbedConfig(
            cluster=ClusterConfig(
                n_nodes=4, clock_skew_stddev=0.5, clock_drift_stddev=1e-5, seed=11
            )
        )
        _, traced = run_traced(
            lambda: LANLTrace(LANLTraceConfig(syscall_event_cost=0, libcall_event_cost=0)),
            mpi_io_test,
            {
                "pattern": AccessPattern.N_TO_1_NONSTRIDED,
                "block_size": 65536,
                "nobj": 4,
                "path": "/pfs/out",
            },
            config=config,
            nprocs=4,
        )
        bundle = traced.bundle
        assert bundle.barrier_stamps, "timing job must emit stamps"
        est = estimate_clocks(bundle.barrier_stamps)
        # With 0.5 s skew stddev, raw ordering mixes phases wildly; the
        # corrected timeline must put every rank's open before any close.
        timeline = global_timeline(bundle, est)
        opens = [t for t, e in timeline if e.name == "SYS_open"]
        closes = [t for t, e in timeline if e.name == "SYS_close"]
        assert max(opens) < max(closes)
        # all four ranks' clocks were estimated
        assert set(est) == {0, 1, 2, 3}

"""//TRACE tests: interposition, throttling discovery, replay generation."""

import pytest

from repro.core.casestudy import FRAMEWORK_CARDS
from repro.errors import FrameworkError
from repro.frameworks.ptrace.depmap import DependencyMap
from repro.frameworks.ptrace.framework import PTrace, PTraceConfig
from repro.frameworks.ptrace.replaygen import build_replayable
from repro.frameworks.ptrace.throttle import PTraceCollector, ThrottleSchedule
from repro.harness.experiment import measure_overhead, run_traced
from repro.harness.figures import paper_testbed
from repro.trace.events import EventLayer
from repro.units import KiB
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern

NP = 4
COUPLED_ARGS = {
    "pattern": AccessPattern.N_TO_1_NONSTRIDED,
    "block_size": 256 * KiB,
    "nobj": 240,
    "path": "/pfs/out",
    "barrier_every": 16,
}
INDEP_ARGS = {
    "pattern": AccessPattern.N_TO_N,
    "block_size": 256 * KiB,
    "nobj": 240,
    "path": "/pfs/out",
    "barriers": False,
}


def tb():
    return paper_testbed(nprocs=NP)


class TestDependencyMapUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            DependencyMap(0)

    def test_edges_and_queries(self):
        d = DependencyMap(4)
        d.mark_probed(0)
        d.add_dependency(0, 1, 0.8)
        d.add_dependency(0, 2, 0.5)
        assert d.depends_on(1, 0)
        assert not d.depends_on(3, 0)
        assert d.dependents_of(0) == [1, 2]
        assert d.sensitivity(0, 1) == pytest.approx(0.8)
        assert d.sensitivity(0, 3) == 0.0
        assert d.n_edges == 2

    def test_self_edges_ignored(self):
        d = DependencyMap(2)
        d.add_dependency(1, 1, 0.9)
        assert d.n_edges == 0

    def test_density_counts_only_probed_sources(self):
        d = DependencyMap(3)
        d.mark_probed(0)
        d.add_dependency(0, 1, 1.0)
        d.add_dependency(0, 2, 1.0)
        assert d.density() == pytest.approx(1.0)
        d2 = DependencyMap(3)
        assert d2.density() == 0.0

    def test_global_coupling(self):
        d = DependencyMap(4)
        assert not d.is_globally_coupled()
        d.add_dependency(0, 1, 1.0)
        d.add_dependency(2, 3, 1.0)
        assert d.is_globally_coupled()  # 4/4 ranks involved

    def test_render(self):
        d = DependencyMap(2)
        d.mark_probed(0)
        d.add_dependency(0, 1, 0.75)
        out = d.render()
        assert "node 0 -> rank 1" in out


class TestThrottleScheduleUnit:
    def test_validation(self):
        with pytest.raises(FrameworkError):
            ThrottleSchedule(0.0, 1e-3)
        with pytest.raises(FrameworkError):
            ThrottleSchedule(0.1, -1.0)

    def test_three_phase_cycle(self):
        s = ThrottleSchedule(epoch_duration=1.0, delay=5e-3)
        s.register_sampled(7)
        s.register_sampled(9)
        # epoch 0: rest; 1: probe 7; 2: recovery; 3: rest; 4: probe 9...
        assert s.throttled_node(0.5) is None
        assert s.throttled_node(1.5) == 7
        assert s.throttled_node(2.5) is None
        assert s.throttled_node(3.5) is None
        assert s.throttled_node(4.5) == 9
        assert s.throttled_node(7.5) is None  # plan exhausted

    def test_delay_for(self):
        s = ThrottleSchedule(1.0, 3e-3)
        s.register_sampled(0)
        assert s.delay_for(1.5, 0) == 3e-3
        assert s.delay_for(1.5, 1) == 0.0
        assert s.delay_for(0.5, 0) == 0.0

    def test_plan_duration(self):
        s = ThrottleSchedule(0.5, 1e-3, passes=2)
        s.register_sampled(0)
        s.register_sampled(1)
        assert s.plan_duration == pytest.approx((3 * 4 + 1) * 0.5)

    def test_empty_plan_never_throttles(self):
        s = ThrottleSchedule(1.0, 1e-3)
        assert s.throttled_node(1.5) is None


class TestInterposition:
    def test_registered(self):
        assert PTrace.name == "ptrace" and PTrace.name in FRAMEWORK_CARDS
        assert PTraceCollector.name == "ptrace-collector"
        assert PTraceCollector.name in FRAMEWORK_CARDS

    def test_near_zero_overhead(self):
        """§4.3: overhead '~0%' without throttling."""
        m = measure_overhead(
            PTrace, mpi_io_test,
            dict(COUPLED_ARGS, nobj=32),
            config=tb(), nprocs=NP,
        )
        assert m.elapsed_overhead < 0.02

    def test_captures_io_calls_only(self):
        """'All I/O system calls are captured' — and nothing else."""
        _, traced = run_traced(
            PTrace, mpi_io_test, dict(COUPLED_ARGS, nobj=8), config=tb(), nprocs=NP
        )
        from repro.frameworks.ptrace.framework import IO_TRACED_CALLS
        from repro.trace.events import SYNC_CALLS

        for e in traced.bundle.all_events():
            if e.layer is EventLayer.SYSCALL:
                assert e.name in IO_TRACED_CALLS
            else:
                assert e.name in SYNC_CALLS

    def test_mpi_sync_markers_optional(self):
        _, traced = run_traced(
            lambda: PTrace(PTraceConfig(record_mpi_sync=False)),
            mpi_io_test, dict(COUPLED_ARGS, nobj=8), config=tb(), nprocs=NP,
        )
        assert all(
            e.layer is EventLayer.SYSCALL for e in traced.bundle.all_events()
        )


class TestDiscovery:
    def collect(self, args, sampling=1.0, **kw):
        coll = PTraceCollector(sampling=sampling, epoch_duration=0.2, **kw)
        holder = {}

        def factory():
            holder["c"] = coll
            return coll

        m = measure_overhead(factory, mpi_io_test, args, config=tb(), nprocs=NP)
        return m, holder["c"].result

    def test_sampling_validation(self):
        with pytest.raises(FrameworkError):
            PTraceCollector(sampling=1.5)

    def test_coupled_app_yields_dense_depmap(self):
        m, res = self.collect(COUPLED_ARGS, sampling=1.0)
        assert res.bundle.metadata["plan_completed"]
        assert res.depmap.n_edges == NP * (NP - 1)
        assert res.depmap.is_globally_coupled()

    def test_independent_app_yields_empty_depmap(self):
        m, res = self.collect(INDEP_ARGS, sampling=1.0)
        assert res.bundle.metadata["plan_completed"]
        assert res.depmap.n_edges == 0
        assert not res.depmap.is_globally_coupled()

    def test_sampling_zero_probes_nothing(self):
        m, res = self.collect(COUPLED_ARGS, sampling=0.0)
        assert res.depmap.n_edges == 0
        assert len(res.depmap.probed) == 0
        assert res.injected_delay == 0.0
        assert m.elapsed_overhead < 0.02

    def test_overhead_scales_with_sampling(self):
        m_full, _ = self.collect(COUPLED_ARGS, sampling=1.0)
        m_half, _ = self.collect(COUPLED_ARGS, sampling=0.5)
        m_none, _ = self.collect(COUPLED_ARGS, sampling=0.0)
        assert m_none.elapsed_overhead < m_half.elapsed_overhead < m_full.elapsed_overhead

    def test_partial_sampling_probes_prefix(self):
        _, res = self.collect(COUPLED_ARGS, sampling=0.5)
        assert res.depmap.probed == {0, 1}
        # every probed node's dependents were found
        for node in (0, 1):
            assert len(res.depmap.dependents_of(node)) == NP - 1


class TestReplayGeneration:
    def test_coupled_trace_gets_syncs(self):
        coll = PTraceCollector(sampling=1.0, epoch_duration=0.2)
        holder = {}

        def factory():
            holder["c"] = coll
            return coll

        run_traced(factory, mpi_io_test, COUPLED_ARGS, config=tb(), nprocs=NP)
        app = build_replayable(holder["c"].result, per_event_overhead=25e-6)
        assert app.metadata["sync_inserted"]
        kinds = {op.kind for s in app.scripts.values() for op in s.ops}
        assert "sync" in kinds and "write" in kinds
        assert app.nprocs == NP
        # replayed volume matches the workload
        assert app.total_io_bytes() == NP * 240 * 256 * KiB

    def test_blind_map_strips_syncs(self):
        coll = PTraceCollector(sampling=0.0, epoch_duration=0.2)
        holder = {}

        def factory():
            holder["c"] = coll
            return coll

        run_traced(factory, mpi_io_test, COUPLED_ARGS, config=tb(), nprocs=NP)
        app = build_replayable(holder["c"].result)
        assert not app.metadata["sync_inserted"]
        kinds = {op.kind for s in app.scripts.values() for op in s.ops}
        assert "sync" not in kinds

"""Cross-framework integration: the survey's comparisons, executed.

These tests run multiple frameworks on identical workloads/machines and
verify the paper's comparative claims hold *simultaneously*, plus the
future-work aggregation story (one run traced by several frameworks at
once, merged onto one timeline).
"""

import pytest

from repro.analysis.summary import summarize_calls
from repro.frameworks.lanltrace.framework import LANLTrace, LANLTraceConfig
from repro.frameworks.netmsg import MsgTrace
from repro.frameworks.ptrace.framework import PTrace
from repro.frameworks.tracefs.framework import Tracefs, TracefsConfig
from repro.harness.experiment import measure_overhead, run_traced
from repro.harness.figures import paper_testbed
from repro.harness.testbed import build_testbed
from repro.simmpi.runtime import mpirun
from repro.trace.events import EventLayer
from repro.trace.merge import merge_bundles
from repro.units import KiB
from repro.workloads.generators import io_intensive, mmap_mix
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern

NP = 4
PFS_ARGS = {
    "pattern": AccessPattern.N_TO_1_NONSTRIDED,
    "block_size": 128 * KiB,
    "nobj": 16,
    "path": "/pfs/out",
}


class TestOverheadOrdering:
    def test_mechanism_cost_hierarchy(self):
        """ptrace stops >> in-kernel hooks > preload wrappers — the
        survey's central quantitative finding, on one workload."""
        tmp_args = {"base": "/tmp/w", "n_files": 8, "file_size": 128 * KiB,
                    "block_size": 16 * KiB}
        lanl = measure_overhead(
            lambda: LANLTrace(LANLTraceConfig()), io_intensive, tmp_args, nprocs=1
        )
        tracefs = measure_overhead(
            lambda: Tracefs(TracefsConfig(target_mount="/tmp")),
            io_intensive, tmp_args, nprocs=1,
        )
        ptrace = measure_overhead(PTrace, io_intensive, tmp_args, nprocs=1)
        assert ptrace.elapsed_overhead < tracefs.elapsed_overhead
        assert tracefs.elapsed_overhead < lanl.elapsed_overhead
        assert lanl.elapsed_overhead > 5 * tracefs.elapsed_overhead


class TestMmapBlindSpotAcrossFrameworks:
    """§4.1.1/§4.2/§4.3: the same workload's mmap I/O is invisible to
    ptrace-class tracers but visible to VFS-level tracing."""

    ARGS = {"path": "/tmp/mapped", "block_size": 32 * KiB, "n_mmap_writes": 6}

    def _write_events(self, bundle, names):
        return [e for e in bundle.all_events() if e.name in names]

    def test_lanl_trace_misses_mmap(self):
        _, traced = run_traced(
            lambda: LANLTrace(LANLTraceConfig()), mmap_mix, self.ARGS, nprocs=1
        )
        writes = self._write_events(traced.bundle, {"SYS_write"})
        assert len(writes) == 1  # only the explicit write

    def test_ptrace_misses_mmap(self):
        _, traced = run_traced(PTrace, mmap_mix, self.ARGS, nprocs=1)
        writes = self._write_events(traced.bundle, {"SYS_write"})
        assert len(writes) == 1

    def test_tracefs_sees_mmap(self):
        _, traced = run_traced(
            lambda: Tracefs(TracefsConfig(target_mount="/tmp")),
            mmap_mix, self.ARGS, nprocs=1,
        )
        writes = self._write_events(traced.bundle, {"vfs_write"})
        assert len(writes) == 1 + 6


class TestSimultaneousTracing:
    """The §6 aggregation story: several frameworks on ONE run, merged."""

    def test_three_frameworks_one_run(self):
        tb = build_testbed(paper_testbed(nprocs=NP))
        lanl = LANLTrace(LANLTraceConfig())
        ptrace = PTrace()
        msgtrace = MsgTrace()

        def setup(rank, proc, mpirank):
            lanl.setup_rank(rank, proc, mpirank)
            ptrace.setup_rank(rank, proc, mpirank)
            msgtrace.setup_rank(rank, proc, mpirank)

        app = lanl.wrap_app(mpi_io_test)
        job = mpirun(tb.cluster, tb.vfs, app, nprocs=NP, args=PFS_ARGS, setup=setup)

        merged = merge_bundles(
            [
                ("lanl", lanl.finalize(job)),
                ("ptrace", ptrace.finalize(job)),
                ("msg", msgtrace.finalize(job)),
            ]
        )
        assert merged.n_sources == 3 * NP
        layers = {e.layer for e in merged.all_events()}
        assert {EventLayer.SYSCALL, EventLayer.LIBCALL, EventLayer.NET} <= layers

        # all three frameworks saw the same writes (each at its own layer)
        summary = summarize_calls(merged)
        per_rank_writes = 16
        # lanl syscall + ptrace syscall views both record SYS_write
        assert summary["SYS_write"].n_calls == 2 * NP * per_rank_writes
        # msgtrace's NET view recorded the collectives
        net_events = [e for e in merged.all_events() if e.layer is EventLayer.NET]
        assert any(e.name == "MPI_Barrier" for e in net_events)
        assert "MPI_Barrier" in summary

    def test_merged_bundle_supports_skew_correction(self):
        from repro.analysis.skew import estimate_clocks

        tb = build_testbed(paper_testbed(nprocs=NP))
        lanl = LANLTrace(LANLTraceConfig())
        msg = MsgTrace()

        def setup(rank, proc, mpirank):
            lanl.setup_rank(rank, proc, mpirank)
            msg.setup_rank(rank, proc, mpirank)

        job = mpirun(
            tb.cluster, tb.vfs, lanl.wrap_app(mpi_io_test),
            nprocs=NP, args=PFS_ARGS, setup=setup,
        )
        merged = merge_bundles(
            [("lanl", lanl.finalize(job)), ("msg", msg.finalize(job))]
        )
        estimates = estimate_clocks(merged.barrier_stamps)
        assert set(estimates) == set(range(NP))


class TestTracefsReplayability:
    """Tracefs's own future work (§4.2), realized: VFS traces replay."""

    def test_vfs_trace_builds_and_replays(self):
        from repro.replay.pseudoapp import build_pseudoapp
        from repro.replay.replayer import replay

        args = {"base": "/tmp/rw", "n_files": 4, "file_size": 64 * KiB,
                "block_size": 16 * KiB, "keep": True}
        _, traced = run_traced(
            lambda: Tracefs(TracefsConfig(target_mount="/tmp")),
            io_intensive, args, nprocs=1,
        )
        app = build_pseudoapp(traced.bundle, layer=EventLayer.VFS)
        script = app.scripts[0]
        kinds = {op.kind for op in script.ops}
        assert {"open", "write", "read"} <= kinds
        assert script.io_bytes == 2 * 4 * 64 * KiB  # writes + read-backs

        result = replay(app)
        assert result.bytes_replayed == script.io_bytes

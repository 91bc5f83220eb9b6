"""LANL-Trace framework tests: attach modes, outputs, timing jobs, overhead."""

import pytest

from repro.errors import FrameworkError
from repro.frameworks.base import FRAMEWORK_REGISTRY
from repro.frameworks.lanltrace.framework import LANLTrace, LANLTraceConfig
from repro.frameworks.lanltrace.outputs import (
    render_aggregate_timing,
    render_call_summary,
    render_raw_trace,
)
from repro.harness.experiment import measure_overhead, run_traced
from repro.harness.figures import paper_testbed
from repro.trace.events import EventLayer
from repro.units import KiB
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern

ARGS = {
    "pattern": AccessPattern.N_TO_1_STRIDED,
    "block_size": 32 * KiB,
    "nobj": 4,
    "path": "/pfs/mpi_io_test.out",
}


def traced_run(config=None, nprocs=4, args=ARGS):
    return run_traced(
        lambda: LANLTrace(config or LANLTraceConfig()),
        mpi_io_test,
        args,
        config=paper_testbed(nprocs=nprocs),
        nprocs=nprocs,
    )


class TestConfig:
    def test_registered(self):
        assert FRAMEWORK_REGISTRY["lanl-trace"] is LANLTrace

    def test_bad_mode_rejected(self):
        with pytest.raises(FrameworkError):
            LANLTraceConfig(mode="dtrace")


class TestCapture:
    def test_ltrace_mode_captures_both_layers(self):
        _, traced = traced_run(LANLTraceConfig(mode="ltrace"))
        bundle = traced.bundle
        assert bundle.n_sources == 4
        layers = {e.layer for e in bundle.all_events()}
        assert layers == {EventLayer.SYSCALL, EventLayer.LIBCALL}
        names = {e.name for e in bundle.all_events()}
        assert "MPI_File_write_at" in names and "SYS_write" in names

    def test_strace_mode_syscalls_only(self):
        """§4.1.1: 'system calls only when using strace'."""
        _, traced = traced_run(LANLTraceConfig(mode="strace"))
        layers = {e.layer for e in traced.bundle.all_events()}
        assert layers == {EventLayer.SYSCALL}

    def test_per_rank_trace_files_with_identity(self):
        _, traced = traced_run()
        for rank, tf in traced.bundle.files.items():
            assert tf.rank == rank
            assert tf.pid == 10000 + rank
            assert tf.hostname
            assert len(tf) > 0

    def test_timing_job_stamps_two_barriers_per_rank(self):
        _, traced = traced_run()
        stamps = traced.bundle.barrier_stamps
        labels = {s.barrier_label for s in stamps}
        assert labels == {
            "before /mpi_io_test.exe",
            "after /mpi_io_test.exe",
        }
        assert len(stamps) == 2 * 4

    def test_timing_job_disabled(self):
        _, traced = traced_run(LANLTraceConfig(timing_job=False))
        assert traced.bundle.barrier_stamps == []

    def test_metadata(self):
        _, traced = traced_run()
        md = traced.bundle.metadata
        assert md["framework"] == "lanl-trace"
        assert md["mode"] == "ltrace"
        assert md["nprocs"] == 4


class TestOutputs:
    """The three Figure 1 output types."""

    def test_raw_trace_lines_look_like_figure1(self):
        _, traced = traced_run()
        text = render_raw_trace(traced.bundle, rank=0)
        assert "SYS_open(" in text
        assert "SYS_statfs64(" in text
        lines = text.strip().splitlines()
        # every line: timestamp name(args) = result <duration>
        import re

        for line in lines[:20]:
            assert re.match(r"^\d+\.\d{6} \w+\(.*\) (= .* )?<", line), line

    def test_aggregate_timing_format(self):
        _, traced = traced_run()
        text = render_aggregate_timing(traced.bundle)
        assert "# Barrier before /mpi_io_test.exe" in text
        assert "# Barrier after /mpi_io_test.exe" in text
        assert "Entered barrier at" in text
        assert "Exited barrier at" in text

    def test_call_summary_counts(self):
        _, traced = traced_run()
        text = render_call_summary(traced.bundle)
        assert "SUMMARY COUNT OF TRACED CALL(S)" in text
        assert "MPI_Barrier" in text
        assert "SYS_open" in text
        # the counts columns parse as integers
        for line in text.splitlines()[3:]:
            parts = line.split()
            assert int(parts[1]) > 0

    def test_summary_counts_match_bundle(self):
        from repro.analysis.summary import summarize_calls

        _, traced = traced_run()
        s = summarize_calls(traced.bundle)
        writes_in_bundle = sum(
            1 for e in traced.bundle.all_events() if e.name == "SYS_write"
        )
        assert s["SYS_write"].n_calls == writes_in_bundle == 4 * 4


class TestOverheadBehaviour:
    def test_tracing_slows_the_application(self):
        m = measure_overhead(
            LANLTrace, mpi_io_test, ARGS, config=paper_testbed(nprocs=4), nprocs=4
        )
        assert m.elapsed_overhead > 0.10
        assert m.bandwidth_overhead > 0.05

    def test_strace_cheaper_than_ltrace(self):
        """Fewer seams, fewer events, less overhead."""
        m_ltrace = measure_overhead(
            lambda: LANLTrace(LANLTraceConfig(mode="ltrace")),
            mpi_io_test, ARGS, config=paper_testbed(nprocs=4), nprocs=4,
        )
        m_strace = measure_overhead(
            lambda: LANLTrace(LANLTraceConfig(mode="strace")),
            mpi_io_test, ARGS, config=paper_testbed(nprocs=4), nprocs=4,
        )
        assert m_strace.elapsed_overhead < m_ltrace.elapsed_overhead

    def test_events_intercepted_counter(self):
        holder = {}

        def factory():
            fw = LANLTrace()
            holder["fw"] = fw
            return fw

        run_traced(factory, mpi_io_test, ARGS, config=paper_testbed(nprocs=2), nprocs=2)
        assert holder["fw"].events_intercepted > 0

    def test_classification_reflects_mode(self):
        from repro.core.features import Feature

        lt = LANLTrace(LANLTraceConfig(mode="strace"))
        c = lt.classification()
        assert c.cell(Feature.EVENT_TYPES) == "Systems calls"
        lt2 = LANLTrace(LANLTraceConfig(mode="ltrace"))
        assert "library calls" in lt2.classification().cell(Feature.EVENT_TYPES)

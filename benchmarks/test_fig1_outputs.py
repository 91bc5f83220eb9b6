"""Figure 1 — LANL-Trace's three output types.

Runs the traced ``mpi_io_test`` (the figure's own command line uses
``-type 1 -strided 1 -size 32768``) and regenerates the three
human-readable outputs: raw trace data, aggregate timing information, and
the call summary.
"""

import re

from repro.frameworks.lanltrace.framework import LANLTrace, LANLTraceConfig
from repro.frameworks.lanltrace.outputs import (
    render_aggregate_timing,
    render_call_summary,
    render_raw_trace,
)
from repro.harness.experiment import run_traced
from repro.harness.figures import paper_testbed
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern

# Figure 1's command line: mpi_io_test.exe -type 1 -strided 1 -size 32768 -nobj 1
ARGS = {
    "pattern": AccessPattern.N_TO_1_STRIDED,
    "block_size": 32768,
    "nobj": 1,
    "path": "/pfs/mpi_io_test.out",
    "barrier_every": 1,
}


def _trace():
    cfg = LANLTraceConfig(
        command_line='/mpi_io_test.exe "-type" "1" "-strided" "1" "-size" "32768" "-nobj" "1"'
    )
    _, traced = run_traced(
        lambda: LANLTrace(cfg), mpi_io_test, ARGS,
        config=paper_testbed(nprocs=8), nprocs=8,
    )
    return traced.bundle


def test_figure1_three_outputs(once):
    bundle = once(_trace)

    raw = render_raw_trace(bundle, rank=3)
    timing = render_aggregate_timing(bundle)
    summary = render_call_summary(bundle)
    print("\nRaw Trace Data\n" + "\n".join(raw.splitlines()[:8]))
    print("\nAggregate Timing Information\n" + "\n".join(timing.splitlines()[:6]))
    print("\nCall Summary\n" + summary)

    # --- raw trace: epoch timestamps, SYS_* calls, <duration> suffixes ---
    line_re = re.compile(r"^\d{3,}\.\d{6} \w+\(.*\) = .* <\d+\.\d{6}>$")
    raw_lines = raw.strip().splitlines()
    assert sum(1 for l in raw_lines if line_re.match(l)) >= len(raw_lines) - 2
    assert any("MPI_File_open" in l for l in raw_lines)
    assert any("SYS_statfs64" in l for l in raw_lines)
    assert any("SYS_open" in l for l in raw_lines)
    assert any("SYS_fcntl64" in l for l in raw_lines)

    # --- aggregate timing: barrier brackets with per-rank stamps ---
    assert '# Barrier before /mpi_io_test.exe "-type" "1"' in timing
    assert "# Barrier after" in timing
    stamp_re = re.compile(r"^\d+: \S+ \(\d+\) Entered barrier at \d+\.\d{6}$", re.M)
    assert len(stamp_re.findall(timing)) == 8 * 2  # 8 ranks x 2 barriers

    # --- call summary: header + per-function counts ---
    assert "SUMMARY COUNT OF TRACED CALL(S)" in summary
    assert "MPI_Barrier" in summary
    assert "SYS_open" in summary


def test_figure1_timing_info_supports_skew_accounting(once):
    """The aggregate timing output exists so 'analysis and replay tools
    [can] account for time drift and skew' — verify it actually can."""
    from repro.analysis.skew import estimate_clocks

    bundle = once(_trace)
    estimates = estimate_clocks(bundle.barrier_stamps)
    assert set(estimates) == set(range(8))

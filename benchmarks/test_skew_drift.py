"""Time skew and drift accounting (§3.1 feature; Figure 1 middle output).

LANL-Trace's barrier timing jobs exist so tools can "account for different
nodes having clocks that are off by a constant difference (skew) and
different nodes whose clocks are off by a changing difference (drift)".
This benchmark runs the full pipeline on a cluster with aggressively bad
clocks and quantifies the correction.
"""

import statistics

from repro.analysis.skew import correct_timestamp, estimate_clocks
from repro.analysis.timeline import global_timeline
from repro.frameworks.lanltrace.framework import LANLTrace, LANLTraceConfig
from repro.harness.experiment import run_traced
from repro.machine import ClusterConfig, TestbedConfig
from repro.units import KiB
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern

NP = 8
BAD_CLOCKS = TestbedConfig(
    cluster=ClusterConfig(
        n_nodes=NP,
        clock_skew_stddev=0.8,  # hundreds of ms of disagreement
        clock_drift_stddev=5e-5,  # tens of ppm
        seed=21,
    )
)
ARGS = {
    "pattern": AccessPattern.N_TO_1_NONSTRIDED,
    "block_size": 128 * KiB,
    "nobj": 24,
    "path": "/pfs/out",
}


def test_skew_drift_pipeline(once):
    def run():
        _, traced = run_traced(
            lambda: LANLTrace(LANLTraceConfig()),
            mpi_io_test, ARGS, config=BAD_CLOCKS, nprocs=NP,
        )
        return traced

    traced = once(run)
    bundle = traced.bundle
    tb_clocks = [
        # ground truth from an identically-seeded machine
        node.clock
        for node in __import__("repro.harness.testbed", fromlist=["build_testbed"])
        .build_testbed(BAD_CLOCKS)
        .cluster.nodes
    ]

    estimates = estimate_clocks(bundle.barrier_stamps)

    # Residual error after correction, sampled mid-run, vs raw skew.
    t_mid = 0.5
    raw_errors, corrected_errors = [], []
    for rank in range(NP):
        local = tb_clocks[rank].local(t_mid)
        ref = tb_clocks[0].local(t_mid)
        raw_errors.append(abs(local - ref))
        corrected_errors.append(abs(correct_timestamp(estimates, rank, local) - ref))
    print(
        "\nclock disagreement vs rank 0 at t=%.1fs:  raw median %.1f ms, "
        "corrected median %.4f ms"
        % (
            t_mid,
            1e3 * statistics.median(raw_errors),
            1e3 * statistics.median(corrected_errors),
        )
    )
    drifting = sum(1 for e in estimates.values() if e.has_drift)
    print("ranks with detected drift: %d/%d" % (drifting, NP))

    # Clocks really were bad (hundreds of ms), and the correction
    # collapses that to the barrier-exit jitter floor — a few ms, set by
    # the tracer's own per-event cost between barrier exit and the stamp.
    assert statistics.median(raw_errors) > 0.05
    assert statistics.median(corrected_errors) < 0.01
    assert statistics.median(corrected_errors) < statistics.median(raw_errors) / 20
    assert drifting >= NP // 2  # drift is observable from two barriers

    # ordering sanity on the merged timeline: every rank's open precedes
    # every close once corrected
    timeline = global_timeline(bundle, estimates)
    t_opens = [t for t, e in timeline if e.name == "SYS_open"]
    t_closes = [t for t, e in timeline if e.name == "SYS_close"]
    assert max(t_opens) < max(t_closes)


def test_frameworks_without_accounting_cannot_correct(once):
    """Tracefs (N/A) and //TRACE (No) produce no barrier stamps — the
    taxonomy row is observable as an absent capability."""
    from repro.frameworks.ptrace.framework import PTrace

    def run():
        _, traced = run_traced(
            PTrace, mpi_io_test, ARGS, config=BAD_CLOCKS, nprocs=NP
        )
        return traced

    traced = once(run)
    assert traced.bundle.barrier_stamps == []
    import pytest

    from repro.errors import TraceError

    with pytest.raises(TraceError):
        estimate_clocks(traced.bundle.barrier_stamps)

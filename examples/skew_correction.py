#!/usr/bin/env python3
"""Clock skew & drift accounting (paper §3.1; Figure 1's timing output).

Builds a cluster whose clocks disagree by hundreds of milliseconds and
drift tens of microseconds per second, traces a run with LANL-Trace (the
only surveyed framework that accounts for skew/drift), and shows:

* the raw per-node timestamps disagreeing wildly;
* the barrier timing job output;
* the estimated per-node clock maps and the corrected global timeline.

Run:  python examples/skew_correction.py
"""

from repro.analysis.skew import estimate_clocks
from repro.analysis.timeline import global_timeline
from repro.frameworks.lanltrace.framework import LANLTrace
from repro.frameworks.lanltrace.outputs import render_aggregate_timing
from repro.harness.experiment import run_traced
from repro.machine import ClusterConfig, TestbedConfig
from repro.units import KiB
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern

NPROCS = 6
BAD_CLOCKS = TestbedConfig(
    cluster=ClusterConfig(
        n_nodes=NPROCS,
        clock_skew_stddev=0.6,
        clock_drift_stddev=5e-5,
        seed=13,
    )
)


def main() -> None:
    print("running traced job on a cluster with bad clocks...")
    _, traced = run_traced(
        LANLTrace,
        mpi_io_test,
        {"pattern": AccessPattern.N_TO_1_NONSTRIDED, "block_size": 128 * KiB,
         "nobj": 16, "path": "/pfs/out"},
        config=BAD_CLOCKS,
        nprocs=NPROCS,
    )
    bundle = traced.bundle

    print("\n=== the problem: one barrier, six 'simultaneous' local stamps ===")
    print("\n".join(render_aggregate_timing(bundle).splitlines()[:8]))

    print("\n=== estimation from the timing-job stamps ===")
    estimates = estimate_clocks(bundle.barrier_stamps)
    reference_time = bundle.barrier_stamps[0].exited_at
    for rank in sorted(estimates):
        est = estimates[rank]
        offset_ms = 1e3 * (est.to_reference(reference_time) - reference_time)
        print("rank %d: offset vs rank 0 %+9.3f ms, rate %.8f%s"
              % (rank, offset_ms, est.beta,
                 "  (drift detected)" if est.has_drift else ""))

    print("\n=== merged timeline, first write per rank ===")
    raw = global_timeline(bundle)
    corrected = global_timeline(bundle, estimates)

    def first_writes(timeline):
        seen = {}
        for t, e in timeline:
            if e.name == "SYS_write" and e.rank not in seen:
                seen[e.rank] = t
        return seen

    raw_w, cor_w = first_writes(raw), first_writes(corrected)
    print("%-6s %18s %18s" % ("rank", "raw local time", "corrected time"))
    for rank in sorted(raw_w):
        print("%-6d %18.6f %18.6f" % (rank, raw_w[rank], cor_w[rank]))
    print("\nraw spread:       %8.1f ms" % (1e3 * (max(raw_w.values()) - min(raw_w.values()))))
    print("corrected spread: %8.1f ms" % (1e3 * (max(cor_w.values()) - min(cor_w.values()))))


if __name__ == "__main__":
    main()

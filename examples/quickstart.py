#!/usr/bin/env python3
"""Quickstart: trace an MPI application with LANL-Trace on a simulated cluster.

Builds the paper's testbed (a 32-node cluster with a RAID-5-backed
parallel file system), runs the LANL ``mpi_io_test`` benchmark under
LANL-Trace, and prints the three Figure-1-style outputs plus the measured
elapsed-time overhead.

Run:  python examples/quickstart.py
"""

from repro.frameworks.lanltrace.framework import LANLTrace, LANLTraceConfig
from repro.frameworks.lanltrace.outputs import (
    render_aggregate_timing,
    render_call_summary,
    render_raw_trace,
)
from repro.harness.experiment import measure_overhead
from repro.harness.figures import paper_testbed
from repro.units import KiB, format_bandwidth
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern


def main() -> None:
    nprocs = 8
    workload_args = {
        "pattern": AccessPattern.N_TO_1_STRIDED,
        "block_size": 64 * KiB,
        "nobj": 16,
        "path": "/pfs/mpi_io_test.out",
        "barrier_every": 8,
    }

    print("tracing mpi_io_test (%d ranks, strided N-to-1, 64KiB blocks)..." % nprocs)
    measurement = measure_overhead(
        lambda: LANLTrace(LANLTraceConfig()),
        mpi_io_test,
        workload_args,
        config=paper_testbed(nprocs=nprocs),
        nprocs=nprocs,
    )
    bundle = measurement.traced_run.bundle

    print("\n=== Output 1: raw trace data (rank 0, first 12 lines) ===")
    print("\n".join(render_raw_trace(bundle, rank=0).splitlines()[:12]))

    print("\n=== Output 2: aggregate timing information ===")
    print("\n".join(render_aggregate_timing(bundle).splitlines()[:10]))

    print("\n=== Output 3: call summary ===")
    print(render_call_summary(bundle))

    print("=== Overhead (the taxonomy's quantitative element) ===")
    print("untraced bandwidth: %s" % format_bandwidth(measurement.untraced.aggregate_bandwidth))
    print("traced bandwidth:   %s" % format_bandwidth(measurement.traced.aggregate_bandwidth))
    print("elapsed time overhead: %.1f%%" % (100 * measurement.elapsed_overhead))
    print("bandwidth overhead:    %.1f%%" % (100 * measurement.bandwidth_overhead))
    print("\nevents captured: %d across %d ranks"
          % (bundle.total_events(), bundle.n_sources))


if __name__ == "__main__":
    main()

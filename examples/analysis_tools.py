#!/usr/bin/env python3
"""Tour of the trace-analysis toolbox on one traced run.

Traces a checkpoint-style application (compute phases alternating with
N-to-1 write bursts) with //TRACE's cheap interposition plus MsgTrace's
message capture, then runs every analysis tool in the library on the
result:

* call summary (Figure 1's third output);
* compute/I-O phase detection;
* iostat-style interval bandwidth;
* inferred writer→reader data dependencies;
* the inter-rank communication matrix.

Run:  python examples/analysis_tools.py
"""

from repro.analysis.dependencies import dependency_summary, infer_data_dependencies
from repro.analysis.iostat import iostat, render_iostat
from repro.analysis.phases import detect_phases, phase_summary
from repro.analysis.summary import summarize_calls
from repro.frameworks.netmsg import MsgTrace
from repro.frameworks.ptrace.framework import PTrace
from repro.harness.figures import paper_testbed
from repro.harness.testbed import build_testbed
from repro.simmpi.runtime import mpirun
from repro.trace.merge import merge_bundles
from repro.units import KiB
from repro.workloads.generators import checkpoint, halo_exchange

NPROCS = 4


def main() -> None:
    print("tracing a checkpoint application (//TRACE + MsgTrace together)...")
    tb = build_testbed(paper_testbed(nprocs=NPROCS))
    ptrace, msgtrace = PTrace(), MsgTrace()

    def setup(rank, proc, mpirank):
        ptrace.setup_rank(rank, proc, mpirank)
        msgtrace.setup_rank(rank, proc, mpirank)

    job = mpirun(
        tb.cluster, tb.vfs, checkpoint,
        nprocs=NPROCS,
        args={"path": "/pfs/ckpt", "phases": 3, "compute_time": 0.3,
              "block_size": 128 * KiB, "blocks_per_phase": 8},
        setup=setup,
    )
    bundle = merge_bundles(
        [("io", ptrace.finalize(job)), ("msg", msgtrace.finalize(job))]
    )
    print("captured %d events over %.2fs\n" % (bundle.total_events(), job.elapsed))

    print("=== call summary ===")
    for row in summarize_calls(bundle).rows():
        print("   %-22s %6d calls   %10.6f s" % (row.name, row.n_calls, row.total_time))

    print("\n=== phase structure (rank 0) ===")
    print(phase_summary(detect_phases(bundle.files[0], gap_threshold=0.1)))

    print("=== iostat (0.25 s intervals, all ranks) ===")
    print(render_iostat(iostat(bundle, interval=0.25)))

    print("=== inferred data dependencies ===")
    print(dependency_summary(infer_data_dependencies(bundle)))

    print("=== communication matrix: halo-exchange run (bytes, src x dst) ===")
    tb2 = build_testbed(paper_testbed(nprocs=NPROCS))
    msg2 = MsgTrace()
    mpirun(
        tb2.cluster, tb2.vfs, halo_exchange,
        nprocs=NPROCS,
        args={"path": "/pfs/halo", "iterations": 3, "halo_bytes": 64 * KiB},
        setup=msg2.setup_rank,
    )
    for row in msg2.communication_matrix():
        print("   " + " ".join("%8d" % v for v in row))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""//TRACE end-to-end: trace, discover dependencies, generate, replay.

The full //TRACE pipeline of paper §2.3/§4.3:

1. run the application under I/O-call interposition with epoch-rotated
   node throttling (causality discovery);
2. inspect the inter-node dependency map;
3. build the replayable pseudo-application (deperturbed think times +
   dependency-derived synchronization);
4. replay it on a fresh simulated cluster and measure fidelity with the
   paper's end-to-end-time method.

Run:  python examples/replay_study.py
"""

from repro.frameworks.ptrace.replaygen import build_replayable
from repro.frameworks.ptrace.throttle import PTraceCollector
from repro.harness.experiment import measure_overhead
from repro.harness.figures import paper_testbed
from repro.replay.fidelity import compare_end_to_end
from repro.replay.replayer import replay
from repro.units import KiB
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern

NPROCS = 4
ARGS = {
    "pattern": AccessPattern.N_TO_1_NONSTRIDED,
    "block_size": 256 * KiB,
    "nobj": 240,
    "path": "/pfs/app.out",
    "barrier_every": 16,
}


def main() -> None:
    testbed = paper_testbed(nprocs=NPROCS)

    print("1. collection run (interposition + throttling discovery)...")
    collector = PTraceCollector(sampling=1.0, epoch_duration=0.2)
    holder = {}

    def factory():
        holder["c"] = collector
        return collector

    measurement = measure_overhead(
        factory, mpi_io_test, ARGS, config=testbed, nprocs=NPROCS
    )
    result = holder["c"].result
    print("   elapsed overhead of collection: %.1f%%"
          % (100 * measurement.elapsed_overhead))
    print("   injected throttle delay: %.2fs" % result.injected_delay)

    print("\n2. discovered dependency map:")
    print(result.depmap.render())

    print("3. generating replayable pseudo-application...")
    app = build_replayable(
        result, per_event_overhead=collector.base.config.per_event_cost
    )
    print("   %d rank scripts, %.0f MiB of scripted I/O, syncs inserted: %s"
          % (app.nprocs, app.total_io_bytes() / 2**20, app.metadata["sync_inserted"]))

    print("\n4. replaying on a fresh cluster...")
    replayed = replay(app, config=testbed, seed=99)
    fidelity = compare_end_to_end(measurement.untraced.elapsed, replayed.elapsed)
    print("   original (untraced): %.2fs" % measurement.untraced.elapsed)
    print("   replay:              %.2fs" % replayed.elapsed)
    print("   fidelity error:      %.1f%%  (paper: 'as low as 6%%')"
          % fidelity.error_percent)


if __name__ == "__main__":
    main()

"""//TRACE elapsed-time overhead (§4.3, Table 2 row).

Paper: "the user can control the tradeoff between trace replay fidelity
and elapsed time overhead.  The overhead is thus highly variable ...
ranging between ~0% to 205%."  The dial is the throttling sample rate.
"""

from repro.frameworks.ptrace.framework import PTrace
from repro.frameworks.ptrace.throttle import PTraceCollector
from repro.harness.experiment import measure_overhead
from repro.harness.figures import paper_testbed
from repro.units import KiB
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern

NP = 8
ARGS = {
    "pattern": AccessPattern.N_TO_1_NONSTRIDED,
    "block_size": 256 * KiB,
    "nobj": 256,
    "path": "/pfs/out",
    "barrier_every": 16,
}


def test_overhead_controlled_by_sampling(once):
    def measure():
        rows = {}
        rows["interposition only"] = measure_overhead(
            PTrace, mpi_io_test, ARGS, config=paper_testbed(nprocs=NP), nprocs=NP
        ).elapsed_overhead
        for sampling in (0.25, 0.5, 1.0):
            m = measure_overhead(
                lambda s=sampling: PTraceCollector(
                    sampling=s, epoch_duration=0.15
                ),
                mpi_io_test, ARGS, config=paper_testbed(nprocs=NP), nprocs=NP,
            )
            rows["sampling %.2f" % sampling] = m.elapsed_overhead
        return rows

    rows = once(measure)
    print()
    for label, ovh in rows.items():
        print("%-22s elapsed overhead %6.1f%%" % (label, 100 * ovh))
    print("paper: ~0% to 205%, adjustable by design")

    values = list(rows.values())
    # floor ~0% (the in-process interposition itself)
    assert values[0] < 0.02
    # strictly increasing with sampling
    assert values == sorted(values)
    assert values[-1] > 5 * max(values[0], 0.005)


def test_aggressive_discovery_reaches_the_paper_ceiling(once):
    """Full causality discovery on a short run: the expensive end of the
    dial.  The paper's 205% corresponds to discovery dominating run time."""

    def measure():
        short = dict(ARGS, nobj=96)
        return measure_overhead(
            lambda: PTraceCollector(
                sampling=1.0,
                epoch_duration=0.1,
                throttle_delay=60e-3,
                probe_epochs=8,  # discovery dominates the duty cycle
                passes=4,
            ),
            mpi_io_test, short, config=paper_testbed(nprocs=NP), nprocs=NP,
        )

    m = once(measure)
    print(
        "\naggressive discovery: %.0f%% elapsed overhead (paper ceiling: 205%%)"
        % (100 * m.elapsed_overhead)
    )
    assert m.elapsed_overhead > 1.0  # comfortably into the hundreds of %

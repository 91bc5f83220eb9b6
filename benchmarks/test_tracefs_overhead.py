"""Tracefs elapsed-time overhead (§2.2, §4.2, Table 2 row).

Paper: "Tracefs manifests up to 12.4% elapsed time overhead for tracing
all file system operations on an I/O intensive workload, and additional
overhead for advanced features such as encryption and checksum
calculation."  Also: "Performance overhead varies greatly depending on
which functionality is employed."
"""

from repro.frameworks.tracefs.framework import Tracefs, TracefsConfig
from repro.harness.experiment import measure_overhead
from repro.units import KiB

KEY = b"0123456789abcdef"
IO_ARGS = {
    "base": "/tmp/work",
    "n_files": 32,
    "file_size": 256 * KiB,
    "block_size": 16 * KiB,
}

CONFIGS = [
    ("counters-only", TracefsConfig(target_mount="/tmp", counters_only=True)),
    ("metadata-only", TracefsConfig(target_mount="/tmp", spec="omit read, write\ntrace *")),
    ("full tracing", TracefsConfig(target_mount="/tmp")),
    ("full + checksum", TracefsConfig(target_mount="/tmp", checksum=True)),
    (
        "full + checksum + encryption",
        TracefsConfig(
            target_mount="/tmp",
            checksum=True,
            encrypt_fields=("user", "path"),
            encryption_key=KEY,
        ),
    ),
]


def test_tracefs_overhead_by_functionality(once):
    from repro.workloads.generators import io_intensive

    def measure_all():
        return {
            label: measure_overhead(
                lambda cfg=cfg: Tracefs(cfg), io_intensive, IO_ARGS, nprocs=1
            )
            for label, cfg in CONFIGS
        }

    results = once(measure_all)
    print()
    for label, m in results.items():
        print("%-30s elapsed overhead %5.1f%%" % (label, 100 * m.elapsed_overhead))
    print("paper: full tracing <= 12.4%, advanced features add more")

    full = results["full tracing"].elapsed_overhead
    # the headline ceiling
    assert 0.0 < full <= 0.124
    # granularity control reduces overhead (the taxonomy's rationale for
    # the feature: "collection of only as much information as is required")
    assert results["counters-only"].elapsed_overhead < full
    assert results["metadata-only"].elapsed_overhead < full
    # advanced features add overhead beyond full tracing
    assert results["full + checksum"].elapsed_overhead > full
    assert (
        results["full + checksum + encryption"].elapsed_overhead
        > results["full + checksum"].elapsed_overhead
    )


def test_tracefs_overhead_is_small_next_to_lanl_trace(once):
    """The survey's core contrast: in-kernel buffered binary tracing vs
    per-event ptrace stops, on the same workload."""
    from repro.frameworks.lanltrace.framework import LANLTrace, LANLTraceConfig
    from repro.workloads.generators import io_intensive

    def measure_both():
        tracefs = measure_overhead(
            lambda: Tracefs(TracefsConfig(target_mount="/tmp")),
            io_intensive, IO_ARGS, nprocs=1,
        )
        lanl = measure_overhead(
            lambda: LANLTrace(LANLTraceConfig()),
            io_intensive, IO_ARGS, nprocs=1,
        )
        return tracefs, lanl

    tracefs, lanl = once(measure_both)
    print(
        "\nsame workload: tracefs %.1f%%, lanl-trace %.1f%% elapsed overhead"
        % (100 * tracefs.elapsed_overhead, 100 * lanl.elapsed_overhead)
    )
    assert lanl.elapsed_overhead > 3 * tracefs.elapsed_overhead

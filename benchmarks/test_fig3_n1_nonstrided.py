"""Figure 3 — LANL-Trace overhead, N processes -> one file, non-strided.

Paper: "Bandwidth overhead approaches a constant factor of untraced
application bandwidth as block size is increased."
Anchors: 64.7% bandwidth overhead at 64 KiB, 6.1% at 8192 KiB.
"""

from repro.harness.figures import figure_series
from repro.harness.report import render_figure
from repro.units import MiB
from repro.workloads.patterns import AccessPattern


def test_figure3(once):
    series = once(
        figure_series, 3, total_bytes_per_rank=32 * MiB, nprocs=32, seed=0
    )
    print("\n" + render_figure(series))
    print(
        "paper anchors: 64.7%% BW overhead @64KiB, 6.1%% @8192KiB; "
        "measured: %.1f%% and %.1f%%"
        % (
            100 * series.points[0].bandwidth_overhead,
            100 * series.points[-1].bandwidth_overhead,
        )
    )
    assert series.pattern is AccessPattern.N_TO_1_NONSTRIDED

    ovh = series.bandwidth_overheads()
    assert ovh[0] == max(ovh) and ovh[-1] == min(ovh)
    assert 0.40 <= ovh[0] <= 0.80  # paper: 64.7%
    assert ovh[-1] <= 0.15  # paper: 6.1%

    # "approaches a constant factor": the overhead does not vanish at
    # large blocks — the residual ptrace slowdown keeps a nonzero floor
    # (the paper's 6.1% at 8 MiB), an order below the small-block peak.
    assert 0.01 <= ovh[-1]
    assert ovh[0] / ovh[-1] > 4

    # non-strided is faster than strided untraced (no per-op seeks) —
    # cross-figure consistency check against Figure 2's physics
    from repro.harness.figures import figure_series as fs

    strided = fs(2, block_sizes=[64 * 1024], total_bytes_per_rank=8 * MiB, nprocs=32)
    nonstrided = fs(3, block_sizes=[64 * 1024], total_bytes_per_rank=8 * MiB, nprocs=32)
    assert nonstrided.points[0].untraced_bandwidth > strided.points[0].untraced_bandwidth

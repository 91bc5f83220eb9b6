"""Figure 4 — LANL-Trace overhead, N processes -> N files.

Paper: "We observe bandwidth overhead similar to that of N to 1,
non-strided."  Anchors: 68.6% bandwidth overhead at 64 KiB, 0.6% at
8192 KiB; at small blocks N-to-N shows the *highest* relative overhead of
the three patterns (its untraced baseline is fastest).
"""

from repro.harness.figures import figure_series
from repro.harness.report import render_figure
from repro.units import KiB, MiB
from repro.workloads.patterns import AccessPattern


def test_figure4(once):
    series = once(
        figure_series, 4, total_bytes_per_rank=32 * MiB, nprocs=32, seed=0
    )
    print("\n" + render_figure(series))
    print(
        "paper anchors: 68.6%% BW overhead @64KiB, 0.6%% @8192KiB; "
        "measured: %.1f%% and %.1f%%"
        % (
            100 * series.points[0].bandwidth_overhead,
            100 * series.points[-1].bandwidth_overhead,
        )
    )
    assert series.pattern is AccessPattern.N_TO_N

    ovh = series.bandwidth_overheads()
    assert ovh[0] == max(ovh) and ovh[-1] == min(ovh)
    assert 0.40 <= ovh[0] <= 0.85  # paper: 68.6%
    assert ovh[-1] <= 0.12  # paper: 0.6%


def test_pattern_ordering_at_64k(once):
    """The paper's cross-figure result at 64 KiB: strided has the LOWEST
    relative overhead (51.3%), N-to-N the highest (68.6%), non-strided in
    between (64.7%) — because relative overhead tracks how fast the
    untraced baseline is."""

    def measure_all():
        out = {}
        for figno in (2, 3, 4):
            s = figure_series(
                figno, block_sizes=[64 * KiB], total_bytes_per_rank=16 * MiB,
                nprocs=32, seed=0,
            )
            out[s.pattern] = s.points[0]
        return out

    points = once(measure_all)
    strided = points[AccessPattern.N_TO_1_STRIDED]
    nonstrided = points[AccessPattern.N_TO_1_NONSTRIDED]
    ntn = points[AccessPattern.N_TO_N]
    print(
        "\n64KiB BW overhead: strided=%.1f%% nonstrided=%.1f%% n-to-n=%.1f%%"
        " (paper: 51.3 / 64.7 / 68.6)"
        % (
            100 * strided.bandwidth_overhead,
            100 * nonstrided.bandwidth_overhead,
            100 * ntn.bandwidth_overhead,
        )
    )
    # strided strictly lowest, as in the paper
    assert strided.bandwidth_overhead < nonstrided.bandwidth_overhead
    assert strided.bandwidth_overhead < ntn.bandwidth_overhead
    # non-strided and N-to-N close together ("similar", §4.1.2)
    assert abs(nonstrided.bandwidth_overhead - ntn.bandwidth_overhead) < 0.15
    # and strided is the slowest untraced configuration
    assert strided.untraced_bandwidth < nonstrided.untraced_bandwidth
    assert strided.untraced_bandwidth < ntn.untraced_bandwidth

"""Figure 2 — LANL-Trace overhead, N processes -> one file, strided.

Paper: "This is the benchmark parameterization most demanding on the
parallel I/O file system.  We observe bandwidth as a logarithmic function
of block size and an approximately constant I/O bandwidth overhead."
Anchors: 51.3% bandwidth overhead at 64 KiB, 5.5% at 8192 KiB.
"""

from repro.harness.figures import figure_series
from repro.harness.report import render_figure
from repro.units import MiB
from repro.workloads.patterns import AccessPattern

PAPER_64K = 0.513
PAPER_8M = 0.055


def test_figure2(once):
    series = once(
        figure_series, 2, total_bytes_per_rank=32 * MiB, nprocs=32, seed=0
    )
    print("\n" + render_figure(series))
    print(
        "paper anchors: 51.3%% BW overhead @64KiB, 5.5%% @8192KiB; "
        "measured: %.1f%% and %.1f%%"
        % (
            100 * series.points[0].bandwidth_overhead,
            100 * series.points[-1].bandwidth_overhead,
        )
    )
    assert series.pattern is AccessPattern.N_TO_1_STRIDED

    # untraced bandwidth grows monotonically with block size (log-like)
    bws = [p.untraced_bandwidth for p in series.points]
    assert bws == sorted(bws)
    assert bws[-1] / bws[0] > 3  # substantial growth across the sweep

    # bandwidth overhead decreases with block size
    ovh = series.bandwidth_overheads()
    assert ovh[0] == max(ovh)
    assert ovh[-1] == min(ovh)

    # anchors: same regime as the paper's 51.3% -> 5.5%
    assert 0.30 <= ovh[0] <= 0.70
    assert ovh[-1] <= 0.15

"""Paper-style text rendering of harness results."""

from __future__ import annotations

from typing import Any, Iterable, List

from repro.harness.figures import FigureSeries
from repro.units import format_bandwidth, format_size

__all__ = ["render_figure", "render_measurements", "render_overhead_range"]

_FIGURE_TITLES = {
    2: "Figure 2. LANL-Trace overhead, N procs -> 1 file, strided",
    3: "Figure 3. LANL-Trace overhead, N procs -> 1 file, non-strided",
    4: "Figure 4. LANL-Trace overhead, N procs -> N files",
}


def render_figure(series: FigureSeries) -> str:
    """One figure as the paper's data series, in a text table."""
    title = _FIGURE_TITLES.get(
        series.figure_number, "Figure %d" % series.figure_number
    )
    lines = [
        title,
        "pattern=%s nprocs=%d" % (series.pattern.value, series.nprocs),
        "%-10s %16s %16s %12s %12s"
        % ("block", "untraced BW", "traced BW", "BW ovh", "elapsed ovh"),
        "-" * 72,
    ]
    for p in series.points:
        if getattr(p, "error", None):
            lines.append(
                "%-10s   FAILED: %s" % (format_size(p.block_size), p.error)
            )
            continue
        lines.append(
            "%-10s %16s %16s %11.1f%% %11.1f%%"
            % (
                format_size(p.block_size),
                format_bandwidth(p.untraced_bandwidth),
                format_bandwidth(p.traced_bandwidth),
                100.0 * p.bandwidth_overhead,
                100.0 * p.elapsed_overhead,
            )
        )
    return "\n".join(lines) + "\n"


def render_measurements(
    measurements: Iterable[Any], label: str = ""
) -> str:
    """Generic sweep rendering: one row per
    :class:`~repro.harness.experiment.OverheadMeasurement`."""
    lines: List[str] = []
    if label:
        lines.append(label)
    lines.append(
        "%-34s %12s %12s" % ("parameters", "BW ovh", "elapsed ovh")
    )
    lines.append("-" * 62)
    for m in measurements:
        params = ", ".join(
            "%s=%s" % (k, format_size(v) if k == "block_size" else v)
            for k, v in sorted(m.params.items())
            if k in ("block_size", "nobj", "pattern")
        )
        lines.append(
            "%-34s %11.1f%% %11.1f%%"
            % (params, 100.0 * m.bandwidth_overhead, 100.0 * m.elapsed_overhead)
        )
    return "\n".join(lines) + "\n"


def render_overhead_range(bounds: dict, paper_min: float, paper_max: float) -> str:
    """The §4.1.1 headline comparison line."""
    return (
        "elapsed time overhead: measured %.0f%% - %.0f%%  (paper: %.0f%% - %.0f%%)\n"
        % (100 * bounds["min"], 100 * bounds["max"], paper_min, paper_max)
    )

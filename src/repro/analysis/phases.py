"""I/O phase detection.

HPC applications alternate compute and I/O phases (the checkpoint pattern
motivating the paper's §1 "killer apps").  Given one rank's trace, this
module segments its timeline into ``io`` and ``compute`` phases: an I/O
phase is a maximal burst of data-moving events separated by gaps shorter
than ``gap_threshold``; the gaps between bursts are compute phases.

Phase structure is what trace *consumers* (replayers, schedulers, burst-
buffer sizers) actually want from the raw event stream, which makes this
the natural demo of the taxonomy's "Analysis tools" feature beyond call
counting.  The data-moving calls are the op table's reads and writes
(:data:`repro.trace.events.OP_KINDS`), nonblocking MPI-IO writes
included, at the lowest layer the trace holds any of them
(:func:`repro.trace.events.lowest_layer`), so a transfer captured as an
MPI-IO call and as the system call beneath it counts once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Union

from repro.trace.events import TraceEvent, calls_of, lowest_layer
from repro.trace.records import TraceFile

__all__ = ["Phase", "detect_phases", "phase_summary"]

_DATA_CALLS = calls_of("read", "write")


@dataclass(frozen=True)
class Phase:
    """One segment of a rank's timeline."""

    kind: str  # "io" | "compute"
    start: float
    end: float
    bytes_moved: int = 0
    n_events: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def bandwidth(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.bytes_moved / self.duration


def detect_phases(
    source: Union[TraceFile, Iterable[TraceEvent]],
    gap_threshold: float = 0.05,
) -> List[Phase]:
    """Segment one rank's events into alternating io/compute phases.

    Only data-moving events (reads/writes, at the lowest layer holding
    any) count as I/O; metadata calls inside a burst do not break it,
    and gaps longer than ``gap_threshold`` between I/O events become
    compute phases.
    """
    events = source.events if isinstance(source, TraceFile) else list(source)
    io_events = sorted(
        lowest_layer(
            [e for e in events if e.name in _DATA_CALLS and e.nbytes is not None]
        ),
        key=lambda e: e.timestamp,
    )
    if not io_events:
        return []
    phases: List[Phase] = []
    burst_start = io_events[0].timestamp
    burst_end = io_events[0].end_timestamp
    burst_bytes = io_events[0].nbytes or 0
    burst_events = 1
    for e in io_events[1:]:
        if e.timestamp - burst_end > gap_threshold:
            phases.append(
                Phase("io", burst_start, burst_end, burst_bytes, burst_events)
            )
            phases.append(Phase("compute", burst_end, e.timestamp))
            burst_start = e.timestamp
            burst_bytes = 0
            burst_events = 0
        burst_end = max(burst_end, e.end_timestamp)
        burst_bytes += e.nbytes or 0
        burst_events += 1
    phases.append(Phase("io", burst_start, burst_end, burst_bytes, burst_events))
    return phases


def phase_summary(phases: List[Phase]) -> str:
    """Human-readable phase table."""
    if not phases:
        return "# no I/O phases detected\n"
    lines = ["# %-8s %12s %12s %12s %8s" % ("kind", "start", "duration", "bytes", "events")]
    for p in phases:
        lines.append(
            "  %-8s %12.6f %12.6f %12d %8d"
            % (p.kind, p.start, p.duration, p.bytes_moved, p.n_events)
        )
    io = [p for p in phases if p.kind == "io"]
    compute = [p for p in phases if p.kind == "compute"]
    lines.append(
        "# %d io phase(s) totalling %.6fs, %d compute gap(s) totalling %.6fs"
        % (
            len(io),
            sum(p.duration for p in io),
            len(compute),
            sum(p.duration for p in compute),
        )
    )
    return "\n".join(lines) + "\n"

"""Bandwidth and event-rate arithmetic over traces and runs.

Small, well-named helpers for the quantities the paper's figures plot:
aggregate bandwidth and traced-event density ("a constant number of
traced events are generated for each block.  The number of such events
is inversely proportional to block size", §4.1.2).  The §3.1 overheads
of a run pair are :class:`repro.harness.parallel.Overheads`.
"""

from __future__ import annotations

from typing import Iterable

from repro.trace.events import IO_DATA_SYSCALLS, TraceEvent
from repro.trace.records import TraceBundle

__all__ = [
    "trace_bandwidth",
    "events_per_byte",
    "payload_bytes",
]


def payload_bytes(
    events: Iterable[TraceEvent], names: frozenset = IO_DATA_SYSCALLS
) -> int:
    """Total payload moved by data syscalls in an event stream."""
    return sum(
        e.nbytes or 0
        for e in events
        if e.name in names and e.nbytes is not None
    )


def trace_bandwidth(bundle: TraceBundle) -> float:
    """Aggregate payload bandwidth implied by a bundle's events.

    Uses the bundle-wide local-time span as the denominator — a *biased*
    view when clocks are skewed, which is precisely why frameworks without
    skew accounting mislead; prefer run elapsed time when available.
    """
    events = bundle.all_events()
    if not events:
        return 0.0
    start = min(e.timestamp for e in events)
    end = max(e.end_timestamp for e in events)
    span = end - start
    if span <= 0:
        return 0.0
    return payload_bytes(events) / span


def events_per_byte(bundle: TraceBundle) -> float:
    """Traced events per payload byte — the paper's 1/block-size density."""
    events = bundle.all_events()
    nbytes = payload_bytes(events)
    if nbytes == 0:
        return 0.0
    return len(events) / nbytes


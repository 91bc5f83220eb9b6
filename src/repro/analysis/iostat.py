"""iostat-style interval statistics over traces.

Buckets a trace's data events into fixed time intervals and reports, per
interval: operation count, bytes moved, bandwidth, and mean latency — the
rolling view an operator watches while a job runs, derived after the fact
from any framework's trace.  The data events are the op table's system
and VFS reads and writes (:data:`repro.trace.events.OP_KINDS`); library
calls are left out, since they duplicate the transfers beneath them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Union

from repro.errors import TraceError
from repro.trace.events import EventLayer, TraceEvent, calls_of
from repro.trace.records import TraceBundle, TraceFile

__all__ = ["Interval", "iostat", "render_iostat"]

_DATA_CALLS = calls_of("read", "write", layers=(EventLayer.SYSCALL, EventLayer.VFS))


@dataclass(frozen=True)
class Interval:
    """One time bucket's aggregate I/O statistics."""

    start: float
    duration: float
    n_ops: int
    nbytes: int
    total_latency: float

    @property
    def bandwidth(self) -> float:
        return self.nbytes / self.duration if self.duration > 0 else 0.0

    @property
    def iops(self) -> float:
        return self.n_ops / self.duration if self.duration > 0 else 0.0

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.n_ops if self.n_ops else 0.0


def iostat(
    source: Union[TraceBundle, TraceFile, Iterable[TraceEvent]],
    interval: float = 0.1,
) -> List[Interval]:
    """Bucket data events into fixed intervals (empty buckets included)."""
    if interval <= 0:
        raise TraceError("interval must be positive")
    if isinstance(source, TraceBundle):
        events: Iterable[TraceEvent] = source.all_events()
    elif isinstance(source, TraceFile):
        events = source.events
    else:
        events = list(source)
    io = [e for e in events if e.name in _DATA_CALLS and e.nbytes is not None]
    if not io:
        return []
    t0 = min(e.timestamp for e in io)
    t1 = max(e.end_timestamp for e in io)
    n_buckets = max(1, int((t1 - t0) / interval) + 1)
    ops = [0] * n_buckets
    nbytes = [0] * n_buckets
    lat = [0.0] * n_buckets
    for e in io:
        b = min(n_buckets - 1, int((e.timestamp - t0) / interval))
        ops[b] += 1
        nbytes[b] += e.nbytes or 0
        lat[b] += e.duration
    return [
        Interval(
            start=t0 + i * interval,
            duration=interval,
            n_ops=ops[i],
            nbytes=nbytes[i],
            total_latency=lat[i],
        )
        for i in range(n_buckets)
    ]


def render_iostat(intervals: List[Interval]) -> str:
    """Text table in the style of ``iostat -x`` output."""
    if not intervals:
        return "# no data events\n"
    lines = [
        "# %-12s %8s %14s %14s %12s"
        % ("t", "ops", "bytes", "MB/s", "avg-lat(ms)")
    ]
    for iv in intervals:
        lines.append(
            "  %-12.4f %8d %14d %14.2f %12.3f"
            % (
                iv.start,
                iv.n_ops,
                iv.nbytes,
                iv.bandwidth / (1024 * 1024),
                1e3 * iv.mean_latency,
            )
        )
    return "\n".join(lines) + "\n"

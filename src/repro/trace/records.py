"""Trace containers: per-node trace files and whole-run bundles.

LANL-Trace writes one raw trace file per process plus cluster-wide
aggregate timing (Figure 1); Tracefs writes one stream per mount; //TRACE
one per rank.  :class:`TraceFile` is the per-source container;
:class:`TraceBundle` groups every source of one traced run together with
the barrier timing stamps needed for skew/drift correction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.trace.events import EventLayer, TraceEvent

__all__ = ["TraceFile", "TraceBundle", "BarrierStamp", "source_rank"]


@dataclass(frozen=True)
class BarrierStamp:
    """One line of LANL-Trace's aggregate timing output.

    The paper's Figure 1 shows the format::

        7: host13.lanl.gov (10378) Entered barrier at 1159808385.170918
        7: host13.lanl.gov (10378) Exited barrier at 1159808385.173167

    A stamp records a rank's *local* clock reading on entering and exiting
    one global barrier; because all ranks exit a barrier at (nearly) the
    same true time, pairs of stamps from different ranks expose their
    relative skew, and stamps from two different barriers expose drift.
    """

    barrier_label: str
    rank: int
    hostname: str
    pid: int
    entered_at: float
    exited_at: float

    def __post_init__(self) -> None:
        if self.exited_at < self.entered_at:
            raise ValueError("barrier exit before entry")


class TraceFile:
    """Events captured from one source (one process / one mount).

    Iterable and indexable; events are kept in capture order (which is
    local-timestamp order for a single source).
    """

    def __init__(
        self,
        events: Iterable[TraceEvent] = (),
        hostname: str = "",
        pid: int = 0,
        rank: Optional[int] = None,
        framework: str = "",
    ):
        self.events: List[TraceEvent] = list(events)
        self.hostname = hostname
        self.pid = pid
        self.rank = rank
        self.framework = framework

    def append(self, event: TraceEvent) -> None:
        """Record one more event (capture order)."""
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __getitem__(self, i: int) -> TraceEvent:
        return self.events[i]

    # -- queries ----------------------------------------------------------

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> "TraceFile":
        """A new TraceFile with only events matching ``predicate``."""
        out = TraceFile(
            (e for e in self.events if predicate(e)),
            hostname=self.hostname,
            pid=self.pid,
            rank=self.rank,
            framework=self.framework,
        )
        return out

    def by_layer(self, layer: EventLayer) -> "TraceFile":
        """Only the events captured at ``layer``."""
        return self.filter(lambda e: e.layer is layer)

    def names(self) -> List[str]:
        """Event names in capture order."""
        return [e.name for e in self.events]

    def total_bytes(self) -> int:
        """Sum of payload bytes over I/O events."""
        return sum(e.nbytes for e in self.events if e.nbytes is not None)

    def span(self) -> float:
        """Local-time distance from first event start to last event end."""
        if not self.events:
            return 0.0
        start = min(e.timestamp for e in self.events)
        end = max(e.end_timestamp for e in self.events)
        return end - start

    def map(self, fn: Callable[[TraceEvent], TraceEvent]) -> "TraceFile":
        """A new TraceFile with ``fn`` applied to every event."""
        return TraceFile(
            (fn(e) for e in self.events),
            hostname=self.hostname,
            pid=self.pid,
            rank=self.rank,
            framework=self.framework,
        )


def source_rank(tf: TraceFile, position: int) -> int:
    """The rank one of a run's trace files is filed under: its own rank,
    else its position among the run's files."""
    return int(tf.rank) if tf.rank is not None else position


class TraceBundle:
    """Everything one traced run produced.

    Attributes
    ----------
    files:
        Per-source trace files keyed by rank (or source index).
    barrier_stamps:
        LANL-Trace-style timing-job stamps for skew/drift accounting
        (empty for frameworks that do not support it — a taxonomy
        distinguishing feature).
    metadata:
        Free-form run description: workload name, parameters, framework,
        cluster size...
    """

    def __init__(
        self,
        files: Optional[Dict[int, TraceFile]] = None,
        barrier_stamps: Iterable[BarrierStamp] = (),
        metadata: Optional[Dict[str, object]] = None,
    ):
        self.files: Dict[int, TraceFile] = dict(files or {})
        self.barrier_stamps: List[BarrierStamp] = list(barrier_stamps)
        self.metadata: Dict[str, object] = dict(metadata or {})

    @classmethod
    def from_files(cls, files: Iterable[TraceFile]) -> "TraceBundle":
        """One run from its trace files, each filed under
        :func:`source_rank`; the run's framework is the first one a file
        names."""
        bundle = cls()
        for position, tf in enumerate(files):
            bundle.add_file(source_rank(tf, position), tf)
            if tf.framework:
                bundle.metadata.setdefault("framework", tf.framework)
        return bundle

    def add_file(self, key: int, tf: TraceFile) -> None:
        """Attach one source's trace under ``key`` (usually the rank)."""
        self.files[key] = tf

    @property
    def n_sources(self) -> int:
        return len(self.files)

    def all_events(self) -> List[TraceEvent]:
        """All events from all sources, in (source, capture) order."""
        out: List[TraceEvent] = []
        for key in sorted(self.files):
            out.extend(self.files[key].events)
        return out

    def total_events(self) -> int:
        """Events across every source."""
        return sum(len(tf) for tf in self.files.values())

    def map_events(self, fn: Callable[[TraceEvent], TraceEvent]) -> "TraceBundle":
        """A new bundle with ``fn`` applied to every event (metadata shared)."""
        return TraceBundle(
            files={k: tf.map(fn) for k, tf in self.files.items()},
            barrier_stamps=self.barrier_stamps,
            metadata=dict(self.metadata),
        )

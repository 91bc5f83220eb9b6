"""MsgTrace — a message-passing tracer, exercising the paper's future work.

§6: "we believe our methodology can be expanded to define a more global
taxonomy for describing diverse general data collection mechanisms ...
such as path based event tracing in distributed applications [8],[10].
With such a global taxonomy, we would be able [to] survey the entire
Tracing Framework landscape and identify distinct but complementary
tracing mechanisms."

MsgTrace is that exercise: a *fourth* framework, capturing the taxonomy's
third event type — "messages passed between nodes in a cluster" (§3.1) —
rather than I/O.  It interposes the MPI point-to-point and collective
calls at the library seam, records them as NET-layer events with payload
sizes, and derives a communication matrix.  Because it implements the
same :class:`~repro.frameworks.base.TracingFramework` lifecycle, every
taxonomy tool (classification, summary tables, the recommendation engine,
the overhead protocol) applies to it unchanged — which is precisely the
claim the future-work section makes for a common framework.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.casestudy import msgtrace_classification
from repro.core.classification import FrameworkClassification
from repro.frameworks.base import TracingFramework
from repro.simos.interpose import Interposer
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceBundle, TraceFile

__all__ = ["MsgTrace", "MsgTraceConfig", "MESSAGE_CALLS"]

#: The MPI communication calls MsgTrace wraps.
MESSAGE_CALLS = frozenset(
    {
        "MPI_Send",
        "MPI_Recv",
        "MPI_Barrier",
        "MPI_Bcast",
        "MPI_Gather",
        "MPI_Allgather",
        "MPI_Reduce",
        "MPI_Allreduce",
        "MPI_Scatter",
    }
)


@dataclass(frozen=True)
class MsgTraceConfig:
    """Interposition cost calibration (preload-wrapper cheap)."""

    per_event_cost: float = 20e-6
    point_to_point_only: bool = False


class _NetInterposer(Interposer):
    """Records communication calls as NET-layer events."""

    def __init__(self, sink: TraceFile, config: MsgTraceConfig):
        wanted = (
            frozenset({"MPI_Send", "MPI_Recv"})
            if config.point_to_point_only
            else MESSAGE_CALLS
        )
        super().__init__(
            sink,
            per_event_cost=config.per_event_cost,
            filter=lambda name: name in wanted,
            charge_filtered_only=True,
        )

    def record(self, event: TraceEvent) -> None:
        if self.filter is not None and not self.filter(event.name):
            return
        self.events_recorded += 1
        self.sink.append(event.with_fields(layer=EventLayer.NET))


class MsgTrace(TracingFramework):
    """Message tracing as a taxonomy-classifiable framework."""

    name = "msgtrace"

    def __init__(self, config: Optional[MsgTraceConfig] = None):
        self.config = config or MsgTraceConfig()
        self._sinks: Dict[int, TraceFile] = {}
        self._nprocs = 0

    def setup_rank(self, rank: int, proc: Any, mpirank: Any) -> None:
        """Wrap one rank's MPI communication calls."""
        sink = TraceFile(
            hostname=proc.node.hostname, pid=proc.pid, rank=rank, framework=self.name
        )
        self._sinks[rank] = sink
        proc.attach(_NetInterposer(sink, self.config), EventLayer.LIBCALL)
        self._nprocs = max(self._nprocs, rank + 1)

    def finalize(self, job: Any) -> TraceBundle:
        """Bundle per-rank message traces plus the communication matrix."""
        bundle = TraceBundle(
            files=dict(self._sinks),
            metadata={
                "framework": self.name,
                "nprocs": job.nprocs,
                "comm_matrix": self.communication_matrix().tolist(),
            },
        )
        return bundle

    # -- analysis ---------------------------------------------------------------

    def communication_matrix(self) -> np.ndarray:
        """Bytes sent between rank pairs: ``matrix[src, dst]``."""
        n = max(1, self._nprocs)
        matrix = np.zeros((n, n), dtype=np.int64)
        for rank, sink in self._sinks.items():
            for e in sink:
                if e.name == "MPI_Send" and len(e.args) >= 1:
                    dst = e.args[0]
                    if isinstance(dst, int) and 0 <= dst < n:
                        matrix[rank, dst] += e.nbytes or 0
        return matrix

    def classification(self) -> FrameworkClassification:
        """MsgTrace classified by the *unchanged* I/O-tracing taxonomy
        (:func:`~repro.core.casestudy.msgtrace_classification`)."""
        return msgtrace_classification()

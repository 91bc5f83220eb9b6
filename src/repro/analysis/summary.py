"""Call summaries: counts and total time per traced function.

Reproduces the third LANL-Trace output of the paper's Figure 1::

    #                     SUMMARY COUNT OF TRACED CALL(S)
    #  Function Name            Number of Calls            Total time (s)
    =====================================================================
       MPIO_Wait                              2                  0.000118
       MPI_Barrier                           29                  2.156431
       ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.trace.events import TraceEvent
from repro.trace.records import TraceBundle, TraceFile

__all__ = ["CallSummary", "summarize_calls", "summarize_store"]


@dataclass(frozen=True)
class CallSummaryRow:
    name: str
    n_calls: int
    total_time: float


class CallSummary:
    """Aggregated per-function statistics over a set of events."""

    def __init__(self, rows: Dict[str, CallSummaryRow]):
        self._rows = rows

    def __contains__(self, name: str) -> bool:
        return name in self._rows

    def __getitem__(self, name: str) -> CallSummaryRow:
        return self._rows[name]

    def __len__(self) -> int:
        return len(self._rows)

    def names(self) -> List[str]:
        """All function names, sorted."""
        return sorted(self._rows)

    def rows(self) -> List[CallSummaryRow]:
        """Rows sorted by function name (the Figure 1 presentation)."""
        return [self._rows[n] for n in self.names()]

    @property
    def total_calls(self) -> int:
        return sum(r.n_calls for r in self._rows.values())

    @property
    def total_time(self) -> float:
        return sum(r.total_time for r in self._rows.values())


def summarize_calls(source: TraceBundle | TraceFile | Iterable[TraceEvent]) -> CallSummary:
    """Build a :class:`CallSummary` from a bundle, file, or event iterable."""
    if isinstance(source, TraceBundle):
        events: Iterable[TraceEvent] = source.all_events()
    elif isinstance(source, TraceFile):
        events = source.events
    else:
        events = source
    counts: Dict[str, int] = {}
    times: Dict[str, float] = {}
    for e in events:
        counts[e.name] = counts.get(e.name, 0) + 1
        times[e.name] = times.get(e.name, 0.0) + e.duration
    return CallSummary(
        {
            name: CallSummaryRow(name=name, n_calls=counts[name], total_time=times[name])
            for name in counts
        }
    )


def summarize_store(
    store_root: str, query: Optional[Any] = None, jobs: int = 1
) -> CallSummary:
    """Build a :class:`CallSummary` from a TraceBank archive's ``ops`` query.

    The store-backed sibling of :func:`summarize_calls`: the same Figure-1
    rows, but computed by the archive's pushdown-pruned parallel scan
    instead of decoding whole bundles in-process.  ``query`` (a
    :class:`repro.store.query.Query`) restricts which runs/events count; its
    aggregate choice is overridden to ``ops``.
    """
    from dataclasses import replace

    from repro.store.bank import TraceBank
    from repro.store.query import Query, run_query

    q = replace(query, agg="ops") if query is not None else Query(agg="ops")
    report = run_query(TraceBank(store_root, create=False), q, jobs=jobs)
    return CallSummary(
        {
            name: CallSummaryRow(
                name=name, n_calls=cell["calls"], total_time=cell["total_time"]
            )
            for name, cell in report["result"]["ops"].items()
        }
    )

"""//TRACE's capture mechanism: I/O-call library interposition.

"System I/O calls are traced using dynamic library interposition [11].
Like strace and ltrace (and thus LANL-Trace), this mechanism cannot track
memory-mapped I/Os" (§4.3).  Interposition is in-process — no ptrace stop,
no context switch — so the per-event cost is tiny and the framework's
overhead without throttling is "~0%".

"All I/O system calls are captured.  This is a side affect of the
framework design objective to capture complete and accurate replayable
traces" — there is deliberately no granularity filter narrowing *which*
I/O calls are kept (Table 2: Control of trace granularity = No).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.frameworks.base import TracingFramework
from repro.simos import syscalls as sc
from repro.simos.interpose import Interposer
from repro.trace.events import SYNC_CALLS, EventLayer
from repro.trace.records import TraceBundle, TraceFile

__all__ = ["PTrace", "PTraceConfig", "IO_TRACED_CALLS"]

#: The I/O system calls //TRACE interposes (everything file-related).
IO_TRACED_CALLS = frozenset(
    {
        sc.SYS_OPEN,
        sc.SYS_CLOSE,
        sc.SYS_READ,
        sc.SYS_WRITE,
        "SYS_pread64",
        "SYS_pwrite64",
        sc.SYS_LSEEK,
        sc.SYS_FSYNC,
        sc.SYS_STAT,
        sc.SYS_FSTAT,
        sc.SYS_UNLINK,
        sc.SYS_STATFS,
    }
)


@dataclass(frozen=True)
class PTraceConfig:
    """Interposition cost calibration.

    ``per_event_cost`` is an in-process function wrapper: take a
    timestamp, append a row to an in-memory buffer.  Orders of magnitude
    cheaper than a ptrace stop — which is why //TRACE's floor overhead is
    ~0% where LANL-Trace's is tens of percent.
    """

    per_event_cost: float = 25e-6
    cpu_factor: float = 1.0
    record_mpi_sync: bool = True  # sync markers improve replay scripts
    # In-memory event window not yet spilled to the trace store; a node
    # crash loses this many trailing events from the rank's capture.
    event_window: int = 64


class PTrace(TracingFramework):
    """//TRACE's always-on interposition layer.

    (The throttling/discovery pipeline lives in
    :class:`~repro.frameworks.ptrace.throttle.PTraceCollector`, which uses
    this framework for each of its runs.)
    """

    name = "ptrace"  # package-safe spelling of //TRACE
    display_name = "//TRACE"

    def __init__(self, config: Optional[PTraceConfig] = None):
        self.config = config or PTraceConfig()
        self._sinks: Dict[int, TraceFile] = {}
        self._interposers: List[Interposer] = []
        self._partial_ranks: Dict[int, int] = {}

    def setup_rank(self, rank: int, proc: Any, mpirank: Any) -> None:
        """Preload the interposition library onto one rank (attach seams)."""
        sink = TraceFile(
            hostname=proc.node.hostname, pid=proc.pid, rank=rank, framework=self.name
        )
        self._sinks[rank] = sink
        io_ip = Interposer(
            sink,
            per_event_cost=self.config.per_event_cost,
            cpu_factor=self.config.cpu_factor,
            filter=lambda name: name in IO_TRACED_CALLS,
            charge_filtered_only=True,
        )
        proc.attach(io_ip, EventLayer.SYSCALL)
        self._interposers.append(io_ip)
        if self.config.record_mpi_sync:
            sync_ip = Interposer(
                sink,
                per_event_cost=self.config.per_event_cost,
                cpu_factor=1.0,
                filter=lambda name: name in SYNC_CALLS,
                charge_filtered_only=True,
            )
            proc.attach(sync_ip, EventLayer.LIBCALL)
            self._interposers.append(sync_ip)

    def on_node_crash(self, node_index: int, at: float, ranks: Any) -> None:
        """A crash drops the in-memory event window of the node's ranks.

        The surviving capture is *partial*: its rank scripts end early, so
        a subsequent replay sees mismatched synchronization counts and
        reports :class:`~repro.errors.ReplayDivergence` instead of
        deadlocking on a sync point the crashed rank never recorded.
        """
        self._drop_crash_tails(ranks, self.config.event_window, self._partial_ranks)

    def finalize(self, job: Any) -> TraceBundle:
        """Collect per-rank I/O traces into one bundle."""
        metadata = {
            "framework": self.name,
            "display_name": self.display_name,
            "nprocs": job.nprocs,
        }
        if self._partial_ranks:
            metadata["partial_ranks"] = dict(self._partial_ranks)
        return TraceBundle(
            files=dict(self._sinks),
            metadata=metadata,
        )

    @property
    def events_recorded(self) -> int:
        return sum(ip.events_recorded for ip in self._interposers)

    def classification(self):
        """//TRACE's taxonomy classification (Table 2, column 3)."""
        from repro.core.casestudy import ptrace_classification

        return ptrace_classification()

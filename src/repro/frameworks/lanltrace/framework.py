"""LANL-Trace orchestration: per-rank tracer attach + timing jobs.

The real tool is a Perl wrapper that launches each rank under
``ltrace -f -tt -T`` (or ``strace``); here the wrap is attaching
:class:`~repro.simos.interpose.Interposer` objects to each rank's seams.

Cost model (the knobs behind Figures 2-4):

* ``syscall_event_cost`` — seconds per intercepted syscall: two ptrace
  stops (context switches into the tracer and back), argument formatting,
  and appending the line to the per-node trace file.
* ``libcall_event_cost`` — the same for PLT-level library events when in
  ltrace mode (cheaper: no kernel round-trip for the stop itself in our
  simplified accounting, but formatting/writing still dominate).
* ``cpu_factor`` — residual whole-process slowdown of running under
  ptrace; this is the "constant factor of untraced application bandwidth"
  the overhead approaches at large block sizes (Figure 3's caption).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.errors import FrameworkError
from repro.frameworks.base import TracingFramework
from repro.simos.interpose import Interposer
from repro.trace.events import EventLayer
from repro.trace.records import BarrierStamp, TraceBundle, TraceFile

__all__ = ["LANLTrace", "LANLTraceConfig"]


@dataclass(frozen=True)
class LANLTraceConfig:
    """Tracing mode and cost calibration.

    ``mode`` is the taxonomy's "control of trace granularity" for this
    framework (§4.1.1): "The user may choose between the use of strace,
    which provides system call only tracing, and ltrace, which provides
    tracing of both system calls and linked library calls."
    """

    mode: str = "ltrace"  # "ltrace" | "strace"
    # Calibrated so the Figure 2-4 sweeps land near the paper's anchors
    # (bandwidth overhead ~51-69% at 64 KiB falling to ~0.6-6% at 8 MiB):
    # each intercepted event costs two ptrace stops plus formatting plus a
    # synchronous append of the trace line to the shared home file system.
    syscall_event_cost: float = 4.5e-3
    libcall_event_cost: float = 3.0e-3
    cpu_factor: float = 1.08
    timing_job: bool = True
    command_line: str = "/mpi_io_test.exe"
    # How many trace lines the wrapper buffers before its synchronous
    # append reaches stable storage; a node crash loses up to this many
    # in-flight events from the crashed rank's capture.
    flush_interval_events: int = 32

    def __post_init__(self) -> None:
        if self.mode not in ("ltrace", "strace"):
            raise FrameworkError("LANL-Trace mode must be 'ltrace' or 'strace'")
        if self.flush_interval_events < 1:
            raise FrameworkError("flush_interval_events must be >= 1")


class LANLTrace(TracingFramework):
    """The LANL-Trace framework (see module docstring)."""

    name = "lanl-trace"

    def __init__(self, config: Optional[LANLTraceConfig] = None):
        self.config = config or LANLTraceConfig()
        self._sinks: Dict[int, TraceFile] = {}
        self._stamps: List[BarrierStamp] = []
        self._interposers: List[Interposer] = []
        self._data_loss: Dict[int, int] = {}

    # -- lifecycle ---------------------------------------------------------------

    def setup_rank(self, rank: int, proc: Any, mpirank: Any) -> None:
        """Wrap one rank with strace (or ltrace): attach the seams."""
        sink = TraceFile(
            hostname=proc.node.hostname, pid=proc.pid, rank=rank, framework=self.name
        )
        self._sinks[rank] = sink
        sys_ip = Interposer(
            sink,
            per_event_cost=self.config.syscall_event_cost,
            cpu_factor=self.config.cpu_factor,
        )
        proc.attach(sys_ip, EventLayer.SYSCALL)
        self._interposers.append(sys_ip)
        if self.config.mode == "ltrace":
            lib_ip = Interposer(
                sink,
                per_event_cost=self.config.libcall_event_cost,
                cpu_factor=1.0,  # the ptrace factor is charged once, above
            )
            proc.attach(lib_ip, EventLayer.LIBCALL)
            self._interposers.append(lib_ip)

    def wrap_app(self, app: Callable) -> Callable:
        """Bracket the application with the barrier timing jobs (§4.1.1):

        "LANL-Trace runs a simple MPI job before and after running the
        traced application.  This job reports the observed time for each
        node, does a barrier, and then reports the time again."
        """
        if not self.config.timing_job:
            return app
        framework = self

        def wrapped(mpi, args) -> Generator[Any, Any, Any]:
            yield from framework._timing_job(mpi, "before %s" % framework.config.command_line)
            result = yield from app(mpi, args)
            yield from framework._timing_job(mpi, "after %s" % framework.config.command_line)
            return result

        return wrapped

    def _timing_job(self, mpi: Any, label: str) -> Generator[Any, Any, None]:
        entered = mpi.wtime()
        yield from mpi.barrier()
        exited = mpi.wtime()
        self._stamps.append(
            BarrierStamp(
                barrier_label=label,
                rank=mpi.rank,
                hostname=mpi.proc.node.hostname,
                pid=mpi.proc.pid,
                entered_at=entered,
                exited_at=exited,
            )
        )

    def on_node_crash(self, node_index: int, at: float, ranks: Any) -> None:
        """A crashed node loses its ranks' unflushed trace tails.

        The wrapper's trace lines go through a buffered file append; up to
        ``flush_interval_events`` in-flight events had not reached stable
        storage when the node died, so they vanish from the capture —
        LANL-Trace loses in-flight data on a crash rather than corrupting
        what was already flushed.
        """
        self._drop_crash_tails(
            ranks, self.config.flush_interval_events, self._data_loss
        )

    def finalize(self, job: Any) -> TraceBundle:
        """Collect per-rank traces and timing stamps into one bundle."""
        metadata = {
            "framework": self.name,
            "mode": self.config.mode,
            "command_line": self.config.command_line,
            "nprocs": job.nprocs,
        }
        if self._data_loss:
            metadata["data_loss"] = dict(self._data_loss)
        return TraceBundle(
            files=dict(self._sinks),
            barrier_stamps=list(self._stamps),
            metadata=metadata,
        )

    # -- bookkeeping ---------------------------------------------------------------

    @property
    def events_intercepted(self) -> int:
        return sum(ip.events_intercepted for ip in self._interposers)

    def classification(self):
        """LANL-Trace's taxonomy classification (Table 2, column 1).

        In strace mode only system calls are captured ("system calls only
        when using strace", §4.1.1); ltrace mode adds library calls.
        """
        from repro.core.casestudy import lanl_trace_classification

        c = lanl_trace_classification()
        if self.config.mode == "strace":
            from repro.core.features import Feature
            from repro.core.values import EventKind, EventTypes

            c = c.with_value(Feature.EVENT_TYPES, EventTypes({EventKind.SYSTEM_CALLS}))
        return c

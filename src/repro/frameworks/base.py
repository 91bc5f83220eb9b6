"""Common interface of every I/O Tracing Framework.

The taxonomy's whole point is that frameworks with very different
mechanisms (ptrace wrappers, kernel stackable layers, library
interposition) can be *measured and classified identically*.  The
interface encodes the lifecycle every mechanism shares:

1. :meth:`~TracingFramework.prepare` — alter the machine before launch
   (Tracefs remounts the target file system under its stackable layer;
   the others do nothing);
2. :meth:`~TracingFramework.setup_rank` — per-rank attach (LANL-Trace
   wraps each process with strace/ltrace; //TRACE preloads its library);
3. :meth:`~TracingFramework.wrap_app` — optionally bracket the
   application (LANL-Trace runs barrier timing jobs before and after);
4. :meth:`~TracingFramework.finalize` — collect everything into a
   :class:`~repro.trace.records.TraceBundle`.

Each framework also reports its taxonomy classification via
``classification()`` (see :mod:`repro.core.classification`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.simmpi.runtime import JobResult
from repro.trace.records import TraceBundle

__all__ = ["TracingFramework", "TracedRun"]


@dataclass
class TracedRun:
    """Outcome of one traced application run."""

    framework_name: str
    job: JobResult
    bundle: TraceBundle

    @property
    def elapsed(self) -> float:
        return self.job.elapsed


class TracingFramework:
    """Base lifecycle; subclasses override the hooks they need."""

    #: short identifier, e.g. "lanl-trace"
    name = "null"

    def prepare(self, testbed: Any) -> None:
        """Modify the machine before job launch (mounts, throttles...)."""

    def setup_rank(self, rank: int, proc: Any, mpirank: Any) -> None:
        """Attach to one rank's process before the application starts."""

    def wrap_app(self, app: Callable) -> Callable:
        """Return the application actually launched (default: unchanged)."""
        return app

    def finalize(self, job: JobResult) -> TraceBundle:
        """Assemble the run's trace bundle after the job completed."""
        return TraceBundle(metadata={"framework": self.name})

    def on_node_crash(self, node_index: int, at: float, ranks: Any) -> None:
        """React to the fault plane killing a node hosting traced ranks.

        ``ranks`` lists the rank numbers that were running on the node.
        The default does nothing — a framework whose capture path buffers
        data on the node (LANL-Trace's unflushed trace tail, //TRACE's
        in-memory event window) overrides this to model what that crash
        does to the captured trace.  Called at simulated time ``at``,
        after the node is marked down and its ranks interrupted.
        """

    def _drop_crash_tails(self, ranks: Any, window: int, lost: Dict[int, int]) -> None:
        """Drop up to ``window`` trailing events from each crashed rank's
        sink (``self._sinks``, rank -> trace file) and add the count to
        ``lost[rank]``: a per-rank capture's unflushed tail dies with its
        node.
        """
        for rank in ranks:
            sink = self._sinks.get(rank)
            if sink is None:
                continue
            n = min(len(sink.events), window)
            if n:
                del sink.events[-n:]
            lost[rank] = lost.get(rank, 0) + n

    # -- taxonomy ------------------------------------------------------------

    def classification(self):
        """This framework's taxonomy feature classification.

        Returns a :class:`repro.core.classification.FrameworkClassification`.
        Subclasses must override; the base raises to catch unclassified
        frameworks in tests.
        """
        raise NotImplementedError("framework %r has no classification" % self.name)

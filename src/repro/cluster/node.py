"""Compute nodes of the simulated cluster."""

from __future__ import annotations

from typing import Any, Generator

from repro.cluster.clock import Clock
from repro.des.resources import Resource
from repro.machine import NodeParams

__all__ = ["Node"]


class Node:
    """A compute node: clock, NIC, CPU cost parameters.

    The node also carries a ``cpu_factor``: a multiplier on all CPU-side
    costs.  Running a process under ptrace slows *everything* by a roughly
    constant factor (every syscall entails tracer stops); LANL-Trace's
    measured overhead "approaches a constant factor of untraced application
    bandwidth as block size is increased" (Figure 3) — that residual
    constant is this factor.  Tracing frameworks raise it while attached.
    """

    def __init__(self, sim: Any, index: int, params: NodeParams | None = None,
                 clock: Clock | None = None, hostname: str | None = None):
        self.sim = sim
        self.index = index
        self.params = params or NodeParams()
        self.clock = clock or Clock()
        self.hostname = hostname or ("host%02d.sim.lanl.gov" % index)
        # One full-duplex-simplified NIC: transfers through this node queue here.
        self.nic = Resource(sim, capacity=1, name="nic:%s" % self.hostname)
        self.cpu_factor = 1.0
        # Cleared/restored by the fault plane on scheduled crash/restart;
        # syscalls dispatched on a down node raise NodeCrashed.
        self.up = True

    # -- time ---------------------------------------------------------------

    def now_local(self) -> float:
        """The node's current local timestamp (what tracers record)."""
        return self.clock.local(self.sim.now)

    # -- CPU charging ---------------------------------------------------------

    def compute(self, seconds: float) -> Generator[Any, Any, None]:
        """Sub-activity: occupy this node's CPU for ``seconds`` of work.

        Scaled by ``cpu_factor`` (ptrace-style slowdown).  Use with
        ``yield from``.
        """
        if seconds > 0:
            yield seconds * self.cpu_factor

    def copy_cost(self, nbytes: int) -> float:
        """Unscaled CPU seconds to copy ``nbytes`` between user and kernel.

        Callers charging this through a process apply the process's
        combined ``cpu_factor`` themselves.
        """
        return nbytes / self.params.mem_bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Node %d %s>" % (self.index, self.hostname)

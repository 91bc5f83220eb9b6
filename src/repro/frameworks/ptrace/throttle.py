"""//TRACE's causality discovery: I/O throttling (§2.3, paper ref [9]).

    "This technique involves a time consuming process of manually slowing
    the response time of a single node to I/O requests associated with a
    particular parallel application and observing the behavior of other
    nodes looking for causal dependencies between nodes."

Mechanism here: the run is divided into fixed *epochs* that alternate
rest / probe.  Probe epoch ``j`` throttles one sampled node (every I/O
call on it is delayed); a progress recorder tracks every rank's payload
throughput per epoch.  A rank whose throughput during node ``i``'s probe
drops well below its rest-epoch baseline causally depends on ``i`` —
barrier-coupled and shared-file-locked applications light up, independent
N-to-N applications do not.

The ``sampling`` knob (fraction of nodes ever probed) is the paper's
fidelity/overhead dial: fewer probes ⇒ less injected delay ⇒ lower
elapsed-time overhead (toward ~0%) but a blinder dependency map; full
sampling on a short run drives overhead toward the paper's 205% end.

The collector is itself a :class:`~repro.frameworks.base.TracingFramework`
so the standard overhead-measurement protocol applies to it unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FrameworkError
from repro.frameworks.base import TracingFramework
from repro.frameworks.ptrace.depmap import DependencyMap
from repro.frameworks.ptrace.framework import IO_TRACED_CALLS, PTrace, PTraceConfig
from repro.simos.interpose import Interposer
from repro.trace.events import EventLayer
from repro.trace.records import TraceBundle, TraceFile

__all__ = ["ThrottleSchedule", "PTraceCollector", "CollectionResult"]


class ThrottleSchedule:
    """Epoch-rotated probe plan shared by every rank's throttle seam.

    Epochs cycle in groups of ``probe_epochs + 2``: a clean *rest* epoch
    (the baseline), then ``probe_epochs`` epochs throttling ``probes[j]``,
    then a *recovery* epoch (dependent ranks stalled by the probe drain
    their barrier waits here, so it belongs to the measurement window, not
    the baseline).  ``probes`` is finalized once all ranks are registered.
    """

    def __init__(
        self,
        epoch_duration: float,
        delay: float,
        passes: int = 1,
        probe_epochs: int = 1,
    ):
        if epoch_duration <= 0:
            raise FrameworkError("epoch_duration must be positive")
        if delay < 0:
            raise FrameworkError("throttle delay must be non-negative")
        if probe_epochs < 1:
            raise FrameworkError("probe_epochs must be >= 1")
        self.epoch_duration = epoch_duration
        self.delay = delay
        self.passes = passes
        #: probe epochs per cycle — the discovery duty cycle.  1 keeps the
        #: gentle rest/probe/recovery rotation; larger values spend most of
        #: the run throttled (the paper's expensive "205%" end of the dial).
        self.probe_epochs = probe_epochs
        self.sampled: List[int] = []
        self._probes: Optional[List[int]] = None

    @property
    def cycle_length(self) -> int:
        """Epochs per probe cycle: rest + probes + recovery."""
        return self.probe_epochs + 2

    def register_sampled(self, node: int) -> None:
        """Add a node to the probe plan."""
        self.sampled.append(node)
        self._probes = None

    @property
    def probes(self) -> List[int]:
        if self._probes is None:
            self._probes = [n for _ in range(self.passes) for n in self.sampled]
        return self._probes

    def epoch(self, now: float) -> int:
        """Epoch index containing simulated time ``now``."""
        return int(now // self.epoch_duration)

    def throttled_node(self, now: float) -> Optional[int]:
        """Which node (if any) the plan throttles at time ``now``.

        Cycle layout: position 0 is clean rest (the baseline), positions
        1..probe_epochs throttle probe ``j``, the final position is
        recovery (stalled dependents drain their waits).
        """
        probes = self.probes
        if not probes:
            return None
        e = self.epoch(now)
        L = self.cycle_length
        j, pos = divmod(e, L)
        if not (1 <= pos <= self.probe_epochs):
            return None
        if j >= len(probes):
            return None
        return probes[j]

    def probe_epoch(self, j: int) -> int:
        """First epoch index at which probe ``j`` fires."""
        return j * self.cycle_length + 1

    def measurement_epochs(self, j: int) -> range:
        """Epochs whose throughput reflects probe ``j`` (probes + recovery)."""
        start = self.probe_epoch(j)
        return range(start, start + self.probe_epochs + 1)

    def is_rest_epoch(self, e: int) -> bool:
        """Is epoch ``e`` a clean baseline epoch?"""
        return e % self.cycle_length == 0

    def delay_for(self, now: float, node: int) -> float:
        """Per-I/O-call delay for ``node`` at time ``now`` (0 if unthrottled)."""
        return self.delay if self.throttled_node(now) == node else 0.0

    @property
    def plan_duration(self) -> float:
        """Time needed to execute the full probe plan."""
        return (self.cycle_length * len(self.probes) + 1) * self.epoch_duration


class _ThrottleSeam(Interposer):
    """Delay injector: slows one node's I/O calls per the schedule."""

    def __init__(self, sim: Any, schedule: ThrottleSchedule, node_index: int):
        super().__init__(TraceFile(), per_event_cost=0.0)
        self.sim = sim
        self.schedule = schedule
        self.node_index = node_index
        self.injected = 0.0

    def entry_cost(self, name: str) -> float:
        if name not in IO_TRACED_CALLS:
            return 0.0
        d = self.schedule.delay_for(self.sim.now, self.node_index)
        self.injected += d
        return d

    def exit_cost(self, name: str) -> float:
        return 0.0

    def record(self, event) -> None:  # the seam only delays, never records
        pass


class _ProgressSeam(Interposer):
    """Per-rank progress recorder: (true time, payload bytes) per I/O call."""

    def __init__(self, sim: Any):
        super().__init__(TraceFile(), per_event_cost=0.0)
        self.sim = sim
        self.samples: List[Tuple[float, int]] = []

    def entry_cost(self, name: str) -> float:
        return 0.0

    def exit_cost(self, name: str) -> float:
        return 0.0

    def record(self, event) -> None:
        if event.nbytes is not None and event.name in IO_TRACED_CALLS:
            self.samples.append((self.sim.now, event.nbytes))


@dataclass
class CollectionResult:
    """Everything //TRACE's discovery run produces."""

    bundle: TraceBundle
    depmap: DependencyMap
    injected_delay: float
    schedule: ThrottleSchedule


class PTraceCollector(TracingFramework):
    """Interposition + throttling discovery, as one measurable framework."""

    name = "ptrace-collector"
    display_name = "//TRACE (with dependency discovery)"

    def __init__(
        self,
        sampling: float = 1.0,
        throttle_delay: float = 10e-3,
        epoch_duration: float = 0.25,
        passes: int = 1,
        probe_epochs: int = 1,
        sensitivity_threshold: float = 0.2,
        config: Optional[PTraceConfig] = None,
    ):
        if not (0.0 <= sampling <= 1.0):
            raise FrameworkError("sampling must be in [0, 1]")
        self.sampling = sampling
        self.threshold = sensitivity_threshold
        self.base = PTrace(config)
        self.schedule = ThrottleSchedule(
            epoch_duration, throttle_delay, passes, probe_epochs
        )
        self._throttles: Dict[int, _ThrottleSeam] = {}
        self._progress: Dict[int, _ProgressSeam] = {}
        self._nprocs = 0
        self.result: Optional[CollectionResult] = None

    # -- lifecycle ------------------------------------------------------------------

    def setup_rank(self, rank: int, proc: Any, mpirank: Any) -> None:
        """Attach interposition plus the throttle and progress seams."""
        self.base.setup_rank(rank, proc, mpirank)
        self._nprocs = max(self._nprocs, rank + 1)
        sim = proc.sim
        # Sample the first ceil(sampling * n) nodes; registration order is
        # rank order, so the sampled set is deterministic.
        throttle = _ThrottleSeam(sim, self.schedule, proc.node.index)
        proc.attach(throttle, EventLayer.SYSCALL)
        self._throttles[rank] = throttle
        progress = _ProgressSeam(sim)
        proc.attach(progress, EventLayer.SYSCALL)
        self._progress[rank] = progress

    def _finalize_sampling(self) -> None:
        n_sampled = math.ceil(self.sampling * self._nprocs)
        self.schedule.sampled.clear()
        for node in range(n_sampled):
            self.schedule.register_sampled(node)

    def wrap_app(self, app):
        """Finalize the sampled-node set on first rank step, then run."""
        # Sampling depends on nprocs, known once all ranks are set up —
        # i.e. by the time any rank takes its first step.
        collector = self

        def wrapped(mpi, args):
            if not collector.schedule.sampled and collector.sampling > 0:
                collector._finalize_sampling()
            result = yield from app(mpi, args)
            return result

        return wrapped

    # -- dependency inference ------------------------------------------------------------

    def _epoch_throughput(self, rank: int) -> Dict[int, float]:
        """Payload bytes per epoch for one rank."""
        d = self.schedule.epoch_duration
        out: Dict[int, float] = {}
        for t, nbytes in self._progress[rank].samples:
            out[int(t // d)] = out.get(int(t // d), 0.0) + nbytes
        return out

    def _infer_depmap(self) -> DependencyMap:
        depmap = DependencyMap(self._nprocs)
        probes = self.schedule.probes
        if not probes:
            return depmap
        per_rank = {r: self._epoch_throughput(r) for r in self._progress}
        for node in probes:
            depmap.mark_probed(node)
        for rank, tputs in per_rank.items():
            if not tputs:
                continue
            active = sorted(tputs)
            first, last = active[0], active[-1]
            # Baseline: clean rest epochs (cycle position 0), interior only.
            rest = [
                v
                for e, v in tputs.items()
                if self.schedule.is_rest_epoch(e) and first < e < last
            ]
            if not rest:
                continue
            baseline = sum(rest) / len(rest)
            if baseline <= 0:
                continue
            by_node: Dict[int, List[float]] = {}
            for j, node in enumerate(probes):
                epochs = self.schedule.measurement_epochs(j)
                if not (first <= epochs[0] and epochs[-1] <= last):
                    continue
                # Measurement window: the probe epochs plus the recovery
                # epoch, where stalled dependents drain their waits.
                window = sum(tputs.get(e, 0.0) for e in epochs) / len(epochs)
                by_node.setdefault(node, []).append(1.0 - window / baseline)
            for node, sensitivities in by_node.items():
                if node == rank:
                    continue
                s = sum(sensitivities) / len(sensitivities)
                if s > self.threshold:
                    depmap.add_dependency(node, rank, min(1.0, s))
        return depmap

    def finalize(self, job: Any) -> TraceBundle:
        """Infer the dependency map and assemble the collection result."""
        bundle = self.base.finalize(job)
        depmap = self._infer_depmap()
        injected = sum(t.injected for t in self._throttles.values())
        # A probe plan longer than the run leaves nodes unprobed (and makes
        # sensitivity noise): surface it rather than silently mis-mapping.
        plan_completed = job.elapsed >= self.schedule.plan_duration
        if not plan_completed:
            executed = max(
                0,
                (self.schedule.epoch(job.elapsed) - 1) // self.schedule.cycle_length,
            )
            depmap.probed.intersection_update(self.schedule.probes[:executed])
        bundle.metadata.update(
            framework=self.name,
            display_name=self.display_name,
            sampling=self.sampling,
            injected_delay=injected,
            depmap_edges=depmap.n_edges,
            plan_completed=plan_completed,
        )
        self.result = CollectionResult(
            bundle=bundle,
            depmap=depmap,
            injected_delay=injected,
            schedule=self.schedule,
        )
        return bundle

    def classification(self):
        """Same Table 2 column as plain //TRACE."""
        return self.base.classification()

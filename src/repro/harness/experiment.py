"""The taxonomy's overhead measurement protocol (§3.1).

The paper defines elapsed time overhead as::

    (elapsed time of traced app  -  elapsed time of untraced app)
    --------------------------------------------------------------
                elapsed time of untraced app

"These measurements can be made using a tool such as the Linux command
line utility time."  Our ``time`` utility is the simulator's true clock:
each measurement builds two *identical* fresh testbeds (same seed), runs
the workload untraced on one and traced on the other, and compares.

Bandwidth overhead (Figures 2-4) is reported as the fractional bandwidth
*loss*, ``(BW_untraced - BW_traced) / BW_untraced`` — equivalent to time
overhead mapped into [0, 1), which is how the paper's per-pattern
percentages (51.3% ... 0.6%) behave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import DeadlockError, NodeCrashed, ReproError, SimOSError, SimTimeoutError
from repro.frameworks.base import TracedRun, TracingFramework
from repro.harness.parallel import Overheads, RunStats
# perfbench imports sweep_args_for_block_size from here.
from repro.harness.parallel import sweep_args_for_block_size  # noqa: F401
from repro.harness.testbed import build_testbed
from repro.machine import TestbedConfig
from repro.simmpi.runtime import JobResult, drive, mpirun

__all__ = [
    "RunOutcome",
    "OverheadMeasurement",
    "run_once",
    "run_untraced",
    "run_traced",
    "measure_overhead",
]

FrameworkFactory = Callable[[], TracingFramework]


#: How a run ended, by the type of its cause (first match wins).
_STATUSES = (
    (NodeCrashed, "node-crash"),
    (SimOSError, "io-error"),
    (SimTimeoutError, "timeout"),
    (DeadlockError, "deadlock"),
)


@dataclass(frozen=True)
class RunOutcome:
    """One application run on a fresh testbed, however it ended.

    ``events_executed`` is the testbed simulator's kernel-event count at
    job end — a determinism fingerprint: two runs of the same spec must
    match it exactly (the run cache verifies this on every hit).

    ``cause`` is the exception that ended the run (``None`` when every
    rank completed); ``status`` and ``error`` classify it.  ``bundle`` is
    the tracer's trace bundle, partial for a failed run, and ``faults``
    the fault plane's snapshot (log + counters) when one was installed.
    """

    elapsed: float
    bytes_moved: int
    job: JobResult
    events_executed: int = 0
    cause: Optional[BaseException] = None
    bundle: Any = None
    framework_name: Optional[str] = None
    faults: Dict[str, Any] = field(default_factory=dict)

    @property
    def aggregate_bandwidth(self) -> float:
        """Total payload bytes over true elapsed seconds."""
        return self.stats.aggregate_bandwidth

    @property
    def stats(self) -> RunStats:
        """The run's cacheable numbers."""
        return RunStats(self.elapsed, self.bytes_moved, self.events_executed)

    @property
    def status(self) -> str:
        """``completed``, ``node-crash``, ``io-error``, ``timeout``,
        ``deadlock`` or ``failed``."""
        if self.cause is None:
            return "completed"
        for kind, status in _STATUSES:
            if isinstance(self.cause, kind):
                return status
        return "failed"

    @property
    def error(self) -> Optional[str]:
        """One line naming the cause, or ``None`` for a completed run."""
        cause = self.cause
        if cause is None:
            return None
        if isinstance(cause, (NodeCrashed, SimTimeoutError)):
            return str(cause)
        if isinstance(cause, DeadlockError):
            return str(cause).splitlines()[0]
        return "%s: %s" % (type(cause).__name__, cause)

    @property
    def killed_ranks(self) -> List[int]:
        """Ranks a node crash killed."""
        return [
            r for r, p in enumerate(self.job.des_processes)
            if isinstance(p.completion.exception, NodeCrashed)
        ]

    @property
    def pending_ranks(self) -> List[int]:
        """Ranks still running when the run ended (a timeout's culprits)."""
        return [r for r, p in enumerate(self.job.des_processes) if p.alive]

    def raise_cause(self) -> "RunOutcome":
        """This outcome if the run completed; otherwise raise its cause."""
        if self.cause is not None:
            raise self.cause
        return self


def _total_payload(job: JobResult) -> int:
    # Read and written bytes count independently: a read-only workload
    # (read_back replays, pseudo-app reads) has no ``bytes_written``
    # attribute yet still moves payload.
    total = 0
    for r in job.results:
        total += int(getattr(r, "bytes_written", 0) or 0)
        total += int(getattr(r, "bytes_read", 0) or 0)
    return total


def run_once(
    workload: Callable,
    workload_args: Dict[str, Any],
    framework_factory: Optional[FrameworkFactory] = None,
    config: Optional[TestbedConfig] = None,
    nprocs: Optional[int] = None,
    seed: Optional[int] = None,
    faults: Optional[Any] = None,
    horizon: Optional[float] = None,
) -> RunOutcome:
    """Run the workload once on a fresh testbed: the only code that runs a job.

    Builds the testbed (``seed`` overrides the config's cluster seed),
    installs a fault plane when ``faults`` (a
    :class:`~repro.faults.schedule.FaultSchedule`) is given, attaches the
    tracer ``framework_factory`` builds (untraced when ``None``), then
    drives the job to its end, bounded by ``horizon`` simulated seconds
    when given.  The framework lifecycle completes even when ranks die:
    crash listeners fire and ``finalize`` still assembles the (partial)
    bundle.  A failed run is returned with its ``cause``, not raised.
    """
    tb = build_testbed(config, seed=seed)
    plane = None
    if faults is not None:
        from repro.faults.plane import FaultPlane

        faults.validate_horizon(horizon)
        plane = FaultPlane(faults).install(tb.cluster, tb.vfs)
    framework = None
    app = workload
    setup = None
    if framework_factory is not None:
        framework = framework_factory()
        framework.prepare(tb)
        app = framework.wrap_app(workload)
        setup = framework.setup_rank
        if plane is not None:
            plane.register_crash_listener(framework.on_node_crash)
    job = mpirun(
        tb.cluster, tb.vfs, app, nprocs=nprocs, args=workload_args,
        setup=setup, run=False,
    )
    cause = drive(job, horizon)
    bundle = None
    if framework is not None:
        try:
            bundle = framework.finalize(job)
        except ReproError:
            if cause is None:
                raise
    return RunOutcome(
        elapsed=job.elapsed,
        bytes_moved=_total_payload(job),
        job=job,
        events_executed=tb.sim.events_executed,
        cause=cause,
        bundle=bundle,
        framework_name=framework.name if framework is not None else None,
        faults=plane.snapshot() if plane is not None else {},
    )


def run_untraced(
    workload: Callable,
    workload_args: Dict[str, Any],
    config: Optional[TestbedConfig] = None,
    nprocs: Optional[int] = None,
    seed: Optional[int] = None,
) -> RunOutcome:
    """Run the workload with no tracer attached, on a fresh testbed.

    ``seed`` overrides the config's cluster seed when given; by default
    the config's own seed is used (so two calls with the same config see
    the same machine, clocks and all).  A failed run raises its cause.
    """
    return run_once(workload, workload_args, None, config, nprocs, seed).raise_cause()


def run_traced(
    framework_factory: FrameworkFactory,
    workload: Callable,
    workload_args: Dict[str, Any],
    config: Optional[TestbedConfig] = None,
    nprocs: Optional[int] = None,
    seed: Optional[int] = None,
) -> tuple[RunOutcome, TracedRun]:
    """Run the workload with a tracer attached, on an identical testbed."""
    outcome = run_once(
        workload, workload_args, framework_factory, config, nprocs, seed
    ).raise_cause()
    return outcome, TracedRun(
        framework_name=outcome.framework_name, job=outcome.job, bundle=outcome.bundle
    )


@dataclass(frozen=True)
class OverheadMeasurement(Overheads):
    """Paired traced/untraced measurement with the paper's two overheads
    (:class:`~repro.harness.parallel.Overheads`)."""

    untraced: RunOutcome
    traced: RunOutcome
    traced_run: TracedRun
    params: Dict[str, Any]


def measure_overhead(
    framework_factory: FrameworkFactory,
    workload: Callable,
    workload_args: Dict[str, Any],
    config: Optional[TestbedConfig] = None,
    nprocs: Optional[int] = None,
    seed: Optional[int] = None,
) -> OverheadMeasurement:
    """The full protocol: identical machines, one untraced + one traced run."""
    untraced = run_untraced(workload, workload_args, config, nprocs, seed)
    traced, traced_run = run_traced(
        framework_factory, workload, workload_args, config, nprocs, seed
    )
    return OverheadMeasurement(
        untraced=untraced,
        traced=traced,
        traced_run=traced_run,
        params=dict(workload_args),
    )

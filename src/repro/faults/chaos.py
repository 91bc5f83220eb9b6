"""The chaos/conformance harness: fault matrices against the frameworks.

One chaos *point* is the taxonomy's §3.1 overhead protocol executed under
a :class:`~repro.faults.schedule.FaultSchedule`: a fresh testbed untraced
and an identical fresh testbed traced, both with the same fault plane
installed.  Every point is bounded by a simulated-time horizon — a run
that cannot finish raises :class:`~repro.errors.SimTimeoutError` (or
:class:`~repro.errors.DeadlockError` if the queue drains first), never a
silent hang — and timeouts are retried with an exponentially doubled
horizon before a point is annotated as failed.

A chaos *matrix* is a named set of scenarios crossed with the paper's
three frameworks.  ``repro chaos --matrix smoke`` runs the acceptance
matrix: node crash, (healed) network partition, disk slowdown storm, and
an EIO storm, each against LANL-Trace, Tracefs and //TRACE, plus a
no-fault baseline per framework for the overhead deltas.  Points route
through :func:`~repro.harness.parallel.run_sweep`, so the matrix fans out
over worker processes and memoizes in the run cache with the same
byte-identity guarantees as the figure sweeps.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlockError,
    FaultError,
    NodeCrashed,
    ReproError,
    SimOSError,
    SimTimeoutError,
)
from repro.faults.plane import FaultPlane
from repro.faults.schedule import (
    DiskErrorStorm,
    DiskSlowdown,
    FaultSchedule,
    NetworkPartition,
    NodeCrash,
)
from repro.harness.parallel import PointResult, RunSpec, RunStats, run_sweep
from repro.harness.testbed import TestbedConfig, build_testbed
from repro.obs.metrics import canonical_json
from repro.units import KiB

__all__ = [
    "ChaosScenario",
    "CHAOS_MATRICES",
    "FaultRunOutcome",
    "run_under_faults",
    "run_traced_with_faults",
    "execute_fault_spec",
    "build_chaos_specs",
    "run_chaos_matrix",
    "render_chaos_report",
]

#: The frameworks a matrix exercises by default — the paper's three.
CHAOS_FRAMEWORKS: Tuple[str, ...] = ("lanl-trace", "tracefs", "ptrace")

#: Ranks per chaos point.  Small on purpose: scenarios probe *behaviour*
#: under faults, not the Figure 2-4 performance envelope.
CHAOS_NPROCS = 4

#: Simulated-time budget per attempt; doubled on each timeout retry.
CHAOS_HORIZON = 30.0


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault schedule with its execution policy.

    ``workload``/``workload_args``/``nprocs``, when set, override the
    matrix defaults (the paper's ``mpi_io_test`` smoke shape) — this is
    how zoo scenarios become chaos rows: same fault plane, different
    application.  ``workload_args`` is a sorted kv-tuple so the scenario
    stays hashable and pickle-stable.
    """

    name: str
    schedule: FaultSchedule
    horizon: float = CHAOS_HORIZON
    retries: int = 1
    description: str = ""
    workload: Optional[str] = None
    workload_args: Tuple[Tuple[str, Any], ...] = ()
    nprocs: Optional[int] = None

    def effective_workload(self) -> str:
        """The registered workload this scenario runs (matrix default: mpi_io_test)."""
        return self.workload or "mpi_io_test"

    def effective_args(self) -> Dict[str, Any]:
        """The workload arguments, falling back to the smoke shape."""
        return dict(self.workload_args) if self.workload_args else _smoke_workload_args()

    def effective_nprocs(self) -> int:
        """Ranks for this scenario's points (matrix default: CHAOS_NPROCS)."""
        return self.nprocs if self.nprocs is not None else CHAOS_NPROCS


def _smoke_scenarios() -> Tuple[ChaosScenario, ...]:
    # Times are calibrated against the smoke workload below: the untraced
    # run takes ~0.13s simulated, the slowest traced run ~0.36s, so
    # windows opening at 0.02-0.05s hit the I/O phase of every run.
    return (
        ChaosScenario(
            name="baseline",
            schedule=FaultSchedule(name="baseline"),
            description="no faults — the overhead-delta reference",
        ),
        ChaosScenario(
            name="node-crash",
            schedule=FaultSchedule.of(
                NodeCrash(at=0.05, node=1), name="node-crash"
            ),
            description="node 1 dies mid-I/O; its rank's capture is lost",
        ),
        ChaosScenario(
            name="partition",
            schedule=FaultSchedule.of(
                NetworkPartition(at=0.03, nodes=(2,), heal_after=0.04),
                name="partition",
            ),
            description="node 2 cut off the fabric for 40ms, then healed",
        ),
        ChaosScenario(
            name="disk-storm",
            schedule=FaultSchedule.of(
                DiskSlowdown(at=0.02, duration=0.08, extra_latency=2e-3,
                             mount="/pfs"),
                name="disk-storm",
            ),
            description="the PFS adds 2ms to every op for 80ms",
        ),
        ChaosScenario(
            name="eio-storm",
            schedule=FaultSchedule.of(
                DiskErrorStorm(at=0.03, duration=0.05, error_rate=0.25,
                               mount="/pfs"),
                name="eio-storm",
            ),
            description="25% of PFS reads/writes fail with EIO for 50ms",
        ),
    )


def _zoo_scenarios() -> Tuple[ChaosScenario, ...]:
    """Every zoo scenario as a (baseline, disk-storm) chaos pair.

    The zoo registry is imported lazily to keep the module dependency
    one-way (zoo depends on the harness, never on the fault matrices).
    """
    from repro.zoo.registry import SCENARIOS

    rows: List[ChaosScenario] = []
    for zc in SCENARIOS.values():
        args = tuple(sorted(zc.args(smoke=True).items()))
        rows.append(
            ChaosScenario(
                name="%s/baseline" % zc.name,
                schedule=FaultSchedule(name="baseline"),
                description="no faults — %s reference" % zc.name,
                workload=zc.workload,
                workload_args=args,
                nprocs=zc.nprocs,
            )
        )
        rows.append(
            ChaosScenario(
                name="%s/disk-storm" % zc.name,
                schedule=FaultSchedule.of(
                    DiskSlowdown(at=0.02, duration=0.08, extra_latency=2e-3,
                                 mount="/pfs"),
                    name="disk-storm",
                ),
                description="PFS adds 2ms/op for 80ms under %s" % zc.name,
                workload=zc.workload,
                workload_args=args,
                nprocs=zc.nprocs,
            )
        )
    return tuple(rows)


#: matrix name -> scenario tuple.  ``smoke`` is the CI acceptance matrix;
#: ``zoo`` crosses every registered zoo scenario with a no-fault baseline
#: and a disk storm.
CHAOS_MATRICES: Dict[str, Tuple[ChaosScenario, ...]] = {
    "smoke": _smoke_scenarios(),
}


def _chaos_matrix(matrix: str) -> Tuple[ChaosScenario, ...]:
    """Resolve a matrix by name; the zoo matrix materializes lazily."""
    if matrix == "zoo" and "zoo" not in CHAOS_MATRICES:
        CHAOS_MATRICES["zoo"] = _zoo_scenarios()
    try:
        return CHAOS_MATRICES[matrix]
    except KeyError:
        raise FaultError(
            "unknown chaos matrix %r (known: %s)"
            % (matrix, ", ".join(sorted(set(CHAOS_MATRICES) | {"zoo"})))
        ) from None


def _smoke_workload_args() -> Dict[str, Any]:
    return {"path": "/pfs/chaos.out", "block_size": 64 * KiB, "nobj": 16}


def chaos_testbed(seed: int = 0) -> TestbedConfig:
    """The small calibrated machine every chaos point runs on."""
    from repro.harness.figures import paper_testbed

    return paper_testbed(seed=seed, nprocs=CHAOS_NPROCS)


# -- single-run execution ----------------------------------------------------


@dataclass
class FaultRunOutcome:
    """One application run under a fault plane, classified.

    ``status`` is one of ``completed``, ``node-crash``, ``io-error``,
    ``deadlock``, ``timeout``, ``failed``.  ``stats`` always carries the
    numbers up to completion or failure detection; ``faults`` is the
    plane's deterministic snapshot (log + counters); ``bundle`` is the
    framework's trace bundle when one was attached (present even for
    failed runs — partial captures are the interesting artifact).
    """

    status: str
    stats: RunStats
    error: Optional[str] = None
    faults: Dict[str, Any] = field(default_factory=dict)
    bundle: Any = None
    killed_ranks: List[int] = field(default_factory=list)
    pending_ranks: List[int] = field(default_factory=list)
    #: Exported ``repro/telemetry/v1`` payload when the run was captured
    #: inside a telemetry session (partial up to the failure for runs
    #: that crashed/timed out — the interesting capture).
    telemetry: Optional[Dict[str, Any]] = None


def _classify(exc: BaseException) -> Tuple[str, str]:
    if isinstance(exc, NodeCrashed):
        return "node-crash", str(exc)
    if isinstance(exc, SimOSError):
        return "io-error", "%s: %s" % (type(exc).__name__, exc)
    return "failed", "%s: %s" % (type(exc).__name__, exc)


def run_under_faults(
    schedule: FaultSchedule,
    framework_factory: Optional[Callable[[], Any]],
    workload: Callable,
    workload_args: Dict[str, Any],
    config: Optional[TestbedConfig] = None,
    nprocs: Optional[int] = None,
    seed: Optional[int] = None,
    horizon: Optional[float] = None,
) -> FaultRunOutcome:
    """One bounded application run on a fresh testbed with faults installed.

    Drives the simulator itself (``mpirun(run=False)``) so the framework
    lifecycle completes even when ranks die: crash listeners fire,
    ``finalize`` still assembles the (partial) bundle, and every failure
    mode is classified instead of propagating.
    """
    from repro.simmpi.runtime import mpirun

    schedule.validate_horizon(horizon)
    tb = build_testbed(config, seed=seed)
    plane = FaultPlane(schedule).install(tb.cluster, tb.vfs)
    framework = None
    app = workload
    setup = None
    if framework_factory is not None:
        framework = framework_factory()
        framework.prepare(tb)
        app = framework.wrap_app(workload)
        setup = framework.setup_rank
        plane.register_crash_listener(framework.on_node_crash)

    job = mpirun(
        tb.cluster, tb.vfs, app, nprocs=nprocs, args=workload_args,
        setup=setup, run=False,
    )
    sim = tb.sim
    start = job.start_time
    status, error = "completed", None
    try:
        sim.run_fast(until=(start + horizon) if horizon is not None else None)
    except DeadlockError as exc:
        root = None
        for proc in job.des_processes:
            if proc.completion.done and proc.completion.exception is not None:
                root = proc.completion.exception
                break
        if root is not None:
            status, error = _classify(root)
        else:
            status, error = "deadlock", str(exc).splitlines()[0]
    else:
        failed = [
            proc.completion.exception
            for proc in job.des_processes
            if proc.completion.done and proc.completion.exception is not None
        ]
        pending = [r for r, p in enumerate(job.des_processes) if p.alive]
        if failed:
            status, error = _classify(failed[0])
        elif pending:
            status = "timeout"
            error = str(SimTimeoutError(horizon or 0.0, pending))
    job.end_time = max(job.rank_end_times) if status == "completed" else sim.now

    bundle = None
    if framework is not None:
        try:
            bundle = framework.finalize(job)
        except ReproError:
            bundle = None

    from repro.harness.experiment import _total_payload

    killed = sorted(
        r
        for r, proc in enumerate(job.des_processes)
        if proc.completion.done
        and isinstance(proc.completion.exception, NodeCrashed)
    )
    pending_ranks = [r for r, p in enumerate(job.des_processes) if p.alive]
    return FaultRunOutcome(
        status=status,
        stats=RunStats(
            elapsed=job.elapsed,
            bytes_moved=_total_payload(job),
            events_executed=sim.events_executed,
        ),
        error=error,
        faults=plane.snapshot(),
        bundle=bundle,
        killed_ranks=killed,
        pending_ranks=pending_ranks,
    )


def run_traced_with_faults(
    schedule: FaultSchedule,
    framework: str,
    workload: str,
    workload_args: Dict[str, Any],
    config: Optional[TestbedConfig] = None,
    nprocs: Optional[int] = None,
    seed: Optional[int] = None,
    horizon: Optional[float] = None,
) -> FaultRunOutcome:
    """Name-based convenience wrapper around :func:`run_under_faults`."""
    from repro.harness.parallel import WORKLOADS, as_framework_spec

    spec = as_framework_spec(framework)
    return run_under_faults(
        schedule,
        spec.build,
        WORKLOADS[workload],
        workload_args,
        config=config,
        nprocs=nprocs,
        seed=seed,
        horizon=horizon,
    )


def _attempt_with_retries(
    schedule: FaultSchedule,
    framework_factory: Optional[Callable[[], Any]],
    workload: Callable,
    workload_args: Dict[str, Any],
    config: Optional[TestbedConfig],
    nprocs: Optional[int],
    seed: Optional[int],
    horizon: Optional[float],
    retries: int,
    telemetry: bool = False,
) -> Tuple[FaultRunOutcome, int]:
    """Run with the exponential-backoff timeout policy.

    Only ``timeout`` retries (with a doubled horizon): the run needed
    more simulated time, so give it more.  Crashes, injected errors and
    deadlocks are deterministic — re-running reproduces them exactly, so
    they terminate the attempt loop immediately.

    With ``telemetry`` each attempt runs inside its own fresh session
    (so a retried attempt's half-history never contaminates the final
    capture) and the returned outcome carries the exported payload.
    """
    attempts = 0
    budget = horizon
    while True:
        attempts += 1
        if telemetry:
            from repro.obs.tracepoints import session

            with session() as col:
                outcome = run_under_faults(
                    schedule, framework_factory, workload, workload_args,
                    config=config, nprocs=nprocs, seed=seed, horizon=budget,
                )
                outcome.telemetry = col.export(end_time=outcome.stats.elapsed)
        else:
            outcome = run_under_faults(
                schedule, framework_factory, workload, workload_args,
                config=config, nprocs=nprocs, seed=seed, horizon=budget,
            )
        if outcome.status != "timeout" or attempts > retries:
            return outcome, attempts
        budget = (budget or CHAOS_HORIZON) * 2.0


def _bundle_metadata(bundle: Any) -> Optional[Dict[str, Any]]:
    meta = getattr(bundle, "metadata", None)
    if not meta:
        return None
    try:
        return json.loads(canonical_json(meta))
    except TypeError:
        return {str(k): str(v) for k, v in sorted(meta.items(), key=lambda kv: str(kv[0]))}


def execute_fault_spec(spec: RunSpec) -> PointResult:
    """Measure one chaos point: untraced + traced under the same schedule.

    The worker entry :func:`~repro.harness.parallel.execute_spec` routes
    here whenever a spec carries ``faults`` or ``sim_timeout``.  A run
    that does not complete yields a failed point: zeroed-overhead stats
    up to the failure, ``error`` annotated, full fault history in
    ``chaos`` — the figure pipeline renders it as a FAILED row instead of
    dropping the figure.
    """
    t0 = time.perf_counter()
    schedule = spec.faults if spec.faults is not None else FaultSchedule()
    if not isinstance(schedule, FaultSchedule):
        raise FaultError(
            "RunSpec.faults must be a FaultSchedule, got %r" % (schedule,)
        )
    workload = spec.workload_fn()
    args = spec.args_dict()
    untraced, u_attempts = _attempt_with_retries(
        schedule, None, workload, args,
        spec.config, spec.nprocs, spec.seed, spec.sim_timeout, spec.retries,
        telemetry=spec.telemetry,
    )
    traced, t_attempts = _attempt_with_retries(
        schedule, spec.framework.build, workload, args,
        spec.config, spec.nprocs, spec.seed, spec.sim_timeout, spec.retries,
        telemetry=spec.telemetry,
    )
    error = None
    if untraced.status != "completed":
        error = "untraced: %s (%s)" % (untraced.status, untraced.error)
    elif traced.status != "completed":
        error = "traced: %s (%s)" % (traced.status, traced.error)
    chaos = {
        "scenario": schedule.name or "baseline",
        "schedule": schedule.describe(),
        "untraced": {
            "status": untraced.status,
            "error": untraced.error,
            "elapsed": untraced.stats.elapsed,
            "killed_ranks": untraced.killed_ranks,
            "pending_ranks": untraced.pending_ranks,
            "attempts": u_attempts,
            "faults": untraced.faults,
        },
        "traced": {
            "status": traced.status,
            "error": traced.error,
            "elapsed": traced.stats.elapsed,
            "killed_ranks": traced.killed_ranks,
            "pending_ranks": traced.pending_ranks,
            "attempts": t_attempts,
            "faults": traced.faults,
            "bundle_metadata": _bundle_metadata(traced.bundle),
        },
    }
    from repro.harness.parallel import ingest_spec_bundle

    run_id = ingest_spec_bundle(
        spec,
        traced.bundle,
        extra={
            "kind": "chaos",
            "scenario": schedule.name or "baseline",
            "status": traced.status,
            # The structured schedule rides in the manifest so diagnosis
            # can surface injected faults as root-cause candidates.
            "faults": schedule.to_json(),
        },
    )
    telemetry = None
    if spec.telemetry:
        telemetry = {"untraced": untraced.telemetry, "traced": traced.telemetry}
    return PointResult(
        params=spec.workload_args,
        untraced=untraced.stats,
        traced=traced.stats,
        wall_seconds=time.perf_counter() - t0,
        telemetry=telemetry,
        error=error,
        attempts=max(u_attempts, t_attempts),
        # JSON round trip so the payload compares equal before and after a
        # run-cache round trip (the telemetry byte-identity idiom).
        chaos=json.loads(canonical_json(chaos)),
        store_run_id=run_id,
    )


# -- matrix execution --------------------------------------------------------


def build_chaos_specs(
    matrix: str = "smoke",
    frameworks: Sequence[str] = CHAOS_FRAMEWORKS,
    seed: int = 0,
    store: Optional[str] = None,
) -> List[RunSpec]:
    """One spec per (framework, scenario), framework-major order.

    ``store`` makes each scenario archive its traced (possibly partial)
    bundle into the TraceBank there, tagged with the scenario name and
    run status.  Scenarios carrying their own workload (zoo rows) run it
    on their own cluster shape; the rest run the ``mpi_io_test`` smoke
    shape.
    """
    scenarios = _chaos_matrix(matrix)
    config = chaos_testbed(seed=seed)
    return [
        RunSpec.create(
            fw,
            sc.effective_workload(),
            sc.effective_args(),
            config=config,
            nprocs=sc.effective_nprocs(),
            seed=seed,
            faults=sc.schedule,
            sim_timeout=sc.horizon,
            retries=sc.retries,
            store=store,
        )
        for fw in frameworks
        for sc in scenarios
    ]


def run_chaos_matrix(
    matrix: str = "smoke",
    frameworks: Sequence[str] = CHAOS_FRAMEWORKS,
    seed: int = 0,
    jobs: int = 1,
    cache: Optional[Any] = None,
    progress: Optional[Callable] = None,
    store: Optional[str] = None,
) -> Dict[str, Any]:
    """Run a named matrix and assemble the survival/overhead report.

    The report is plain canonical-JSON-ready data — byte-identical across
    ``jobs=1``/``jobs=N``/warm-cache (host wall-clock is reported in the
    sweep stats only, never inside the per-scenario records).  ``store``
    archives each scenario's traced bundle; rows then carry the archived
    ``store_run_id`` (content-derived, so still byte-stable).
    """
    scenarios = _chaos_matrix(matrix)
    specs = build_chaos_specs(matrix, frameworks=frameworks, seed=seed, store=store)
    result = run_sweep(specs, jobs=jobs, cache=cache, progress=progress)

    rows: List[Dict[str, Any]] = []
    # Baselines are keyed (framework, workload): a matrix mixing
    # workloads (the zoo matrix) gets one no-fault reference per
    # application, not one global reference.
    baselines: Dict[Tuple[str, str], float] = {}
    idx = 0
    for fw in frameworks:
        for sc in scenarios:
            point = result.points[idx]
            idx += 1
            chaos = point.chaos or {}
            survived = point.error is None
            overhead = point.elapsed_overhead if survived else None
            if survived and sc.schedule.is_empty:
                baselines[(fw, sc.effective_workload())] = overhead
            row = {
                "framework": fw,
                "scenario": sc.name,
                "workload": sc.effective_workload(),
                "survived": survived,
                "status": {
                    "untraced": chaos.get("untraced", {}).get("status"),
                    "traced": chaos.get("traced", {}).get("status"),
                },
                "error": point.error,
                "attempts": point.attempts,
                "elapsed_overhead": overhead,
                "overhead_delta": None,  # filled below once baselines known
                "fault_counters": chaos.get("traced", {}).get("faults", {}).get(
                    "counters", {}
                ),
                "bundle_metadata": chaos.get("traced", {}).get("bundle_metadata"),
                "store_run_id": point.store_run_id,
                "cached": point.cached,
            }
            rows.append(row)
    for row in rows:
        base = baselines.get((row["framework"], row["workload"]))
        if row["elapsed_overhead"] is not None and base is not None:
            row["overhead_delta"] = row["elapsed_overhead"] - base
    report = {
        "schema": "repro/chaos/v1",
        "matrix": matrix,
        "seed": seed,
        "nprocs": CHAOS_NPROCS,
        "frameworks": list(frameworks),
        "scenarios": [
            {"name": sc.name, "description": sc.description,
             "schedule": sc.schedule.describe(), "horizon": sc.horizon,
             "retries": sc.retries, "workload": sc.effective_workload(),
             "nprocs": sc.effective_nprocs()}
            for sc in scenarios
        ],
        "rows": rows,
        "summary": {
            "points": len(rows),
            "survived": sum(1 for r in rows if r["survived"]),
            "failed_annotated": sum(1 for r in rows if not r["survived"]),
            "retried": sum(1 for r in rows if r["attempts"] > 1),
        },
    }
    return json.loads(canonical_json(report))


def render_chaos_report(report: Dict[str, Any]) -> str:
    """The matrix as a text table: survival + overhead delta per cell."""
    lines = [
        "Chaos matrix %r: %d point(s), %d survived, %d annotated failure(s)"
        % (
            report["matrix"],
            report["summary"]["points"],
            report["summary"]["survived"],
            report["summary"]["failed_annotated"],
        ),
        "%-12s %-12s %-10s %12s %12s  %s"
        % ("framework", "scenario", "survived", "elapsed ovh", "ovh delta", "outcome"),
        "-" * 92,
    ]
    for row in report["rows"]:
        if row["survived"]:
            ovh = "%.1f%%" % (100.0 * row["elapsed_overhead"])
            delta = (
                "%+.1f%%" % (100.0 * row["overhead_delta"])
                if row["overhead_delta"] is not None
                else "-"
            )
            outcome = "completed"
        else:
            ovh, delta = "-", "-"
            outcome = "FAILED: %s" % row["error"]
        lines.append(
            "%-12s %-12s %-10s %12s %12s  %s"
            % (
                row["framework"],
                row["scenario"],
                "yes" if row["survived"] else "no",
                ovh,
                delta,
                outcome,
            )
        )
    return "\n".join(lines) + "\n"

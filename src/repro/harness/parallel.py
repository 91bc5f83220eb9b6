"""Parallel sweep executor: fan independent overhead points over processes.

Every point of a figure sweep — one (framework, workload args, testbed,
seed) tuple measured traced and untraced — is an independent, perfectly
deterministic unit of work.  This module makes such points schedulable:

* :class:`FrameworkSpec` / :class:`RunSpec` are pickle-safe descriptions
  of a point.  The old harness passed ``lambda: LANLTrace(...)`` closures,
  which cannot cross a process boundary; specs name a factory in
  :data:`FRAMEWORK_FACTORIES` and a workload in :data:`WORKLOADS` instead.
* :func:`execute_spec` runs one point in the current process and returns a
  :class:`PointResult` — plain numbers (elapsed, payload bytes, kernel
  event fingerprints), no live simulator state, so it pickles and caches.
* :func:`run_sweep` executes a list of specs, serially or over a
  ``ProcessPoolExecutor`` (``jobs > 1``), consulting an optional
  :class:`~repro.harness.runcache.RunCache` first.  Results come back in
  spec order regardless of completion order, so a sweep's output is
  byte-identical whether it ran with ``jobs=1``, ``jobs=N``, or entirely
  from a warm cache — the determinism contract the tests pin down.
"""

from __future__ import annotations

import importlib
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import ReproError
from repro.machine import TestbedConfig

__all__ = [
    "FRAMEWORK_FACTORIES",
    "WORKLOADS",
    "as_framework_spec",
    "FrameworkSpec",
    "RunSpec",
    "RunStats",
    "Overheads",
    "PointResult",
    "SweepReport",
    "SweepResult",
    "build_sweep_specs",
    "execute_spec",
    "execute_spec_safe",
    "ingest_spec_bundle",
    "run_sweep",
    "spec_store_meta",
    "sweep_args_for_block_size",
]


def _framework_factory(module: str, cls: str, config: str) -> Callable:
    """A factory ``fn(params) -> framework`` that imports ``module`` when
    called, so naming a framework never loads the simulator."""

    def build(params: Mapping[str, Any]) -> Any:
        mod = importlib.import_module(module)
        return getattr(mod, cls)(getattr(mod, config)(**params))

    return build


def _workload(module: str, name: str) -> Callable:
    """The generator function ``module.name``, imported when first called.

    The call returns that function's generator itself, so a rank runs the
    workload with no extra ``yield from`` level.
    """

    def app(mpi: Any, args: Dict[str, Any]) -> Any:
        return getattr(importlib.import_module(module), name)(mpi, args)

    return app


#: Named framework factories: name -> callable(params dict) -> TracingFramework.
FRAMEWORK_FACTORIES: Dict[str, Callable[[Mapping[str, Any]], Any]] = {
    "lanl-trace": _framework_factory(
        "repro.frameworks.lanltrace.framework", "LANLTrace", "LANLTraceConfig"
    ),
    "tracefs": _framework_factory(
        "repro.frameworks.tracefs.framework", "Tracefs", "TracefsConfig"
    ),
    "ptrace": _framework_factory(
        "repro.frameworks.ptrace.framework", "PTrace", "PTraceConfig"
    ),
}

_ZOO = "repro.workloads.zoo_workloads"

#: Named workload generator functions: name -> app(mpi, args) generator fn.
WORKLOADS: Dict[str, Callable] = {
    "mpi_io_test": _workload("repro.workloads.mpi_io_test", "mpi_io_test"),
    "zoo_checkpoint_tiered": _workload(_ZOO, "checkpoint_tiered"),
    "zoo_ml_epoch": _workload(_ZOO, "ml_epoch"),
    "zoo_log_append": _workload(_ZOO, "log_append"),
    "zoo_metadata_storm": _workload(_ZOO, "metadata_storm"),
}


def _kv(mapping: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Canonical hashable form of a kwargs mapping: sorted (key, value) pairs."""
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class FrameworkSpec:
    """Pickle-safe recipe for a tracing framework instance.

    ``name`` selects a factory in :data:`FRAMEWORK_FACTORIES`; ``params``
    (sorted key/value pairs) are its construction kwargs.  ``build()`` in a
    worker process recreates exactly the framework a closure would have.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def create(name: str, **params: Any) -> "FrameworkSpec":
        """Construct a spec from keyword parameters."""
        return FrameworkSpec(name=name, params=_kv(params))

    def build(self) -> Any:
        """Instantiate the framework (a
        :class:`~repro.frameworks.base.TracingFramework`) via its
        registered factory."""
        try:
            factory = FRAMEWORK_FACTORIES[self.name]
        except KeyError:
            raise ReproError(
                "no framework factory registered as %r (known: %s)"
                % (self.name, ", ".join(sorted(FRAMEWORK_FACTORIES)) or "none")
            ) from None
        return factory(dict(self.params))


@dataclass(frozen=True)
class RunSpec:
    """Pickle-safe description of one overhead measurement point.

    ``telemetry`` asks the worker to run both measurements inside
    :func:`repro.obs.tracepoints.session` and attach the exported
    payloads to the result.  It is part of the cache key (telemetric and
    plain entries never alias) but never changes the simulated history —
    fingerprints match with it on or off.
    """

    framework: FrameworkSpec
    workload: str
    workload_args: Tuple[Tuple[str, Any], ...]
    config: Optional[TestbedConfig] = None
    nprocs: Optional[int] = None
    seed: Optional[int] = None
    telemetry: bool = False
    #: Optional :class:`~repro.faults.schedule.FaultSchedule` to install on
    #: both runs; routes the point through the chaos executor.  Part of the
    #: cache key (faulted and plain points never alias).
    faults: Optional[Any] = None
    #: Simulated-time horizon per attempt; exceeding it raises
    #: :class:`~repro.errors.SimTimeoutError` instead of hanging.
    sim_timeout: Optional[float] = None
    #: Timeout retries (exponential horizon doubling) before the point is
    #: annotated as failed.
    retries: int = 0
    #: TraceBank archive root; when set, the worker ingests the traced
    #: run's bundle after measuring and records the run id on the result.
    #: Part of the cache key (archived and plain points never alias).
    store: Optional[str] = None

    @staticmethod
    def create(
        framework: Union["FrameworkSpec", str],
        workload: str,
        workload_args: Mapping[str, Any],
        config: Optional[TestbedConfig] = None,
        nprocs: Optional[int] = None,
        seed: Optional[int] = None,
        telemetry: bool = False,
        faults: Optional[Any] = None,
        sim_timeout: Optional[float] = None,
        retries: int = 0,
        store: Optional[str] = None,
    ) -> "RunSpec":
        """Construct a spec from plain arguments (dict args, name or spec)."""
        return RunSpec(
            framework=as_framework_spec(framework),
            workload=workload,
            workload_args=_kv(workload_args),
            config=config,
            nprocs=nprocs,
            seed=seed,
            telemetry=telemetry,
            faults=faults,
            sim_timeout=sim_timeout,
            retries=retries,
            store=store,
        )

    def args_dict(self) -> Dict[str, Any]:
        """The workload arguments as a plain dict."""
        return dict(self.workload_args)

    def workload_fn(self) -> Callable:
        """Resolve the registered workload generator function."""
        try:
            return WORKLOADS[self.workload]
        except KeyError:
            raise ReproError(
                "no workload registered as %r (known: %s)"
                % (self.workload, ", ".join(sorted(WORKLOADS)) or "none")
            ) from None


def as_framework_spec(framework: Any) -> FrameworkSpec:
    """Coerce a spec, registered factory name, or framework class to a spec.

    Closures (the old ``lambda: LANLTrace(...)`` idiom) are rejected with a
    pointed error: they cannot cross a process boundary, which is the whole
    reason specs exist.
    """
    if isinstance(framework, FrameworkSpec):
        return framework
    if isinstance(framework, str):
        if framework not in FRAMEWORK_FACTORIES:
            raise ReproError(
                "no framework factory registered as %r (known: %s)"
                % (framework, ", ".join(sorted(FRAMEWORK_FACTORIES)) or "none")
            )
        return FrameworkSpec(name=framework)
    if isinstance(framework, type):
        from repro.frameworks.base import TracingFramework

        if issubclass(framework, TracingFramework):
            name = framework.name
            if name in FRAMEWORK_FACTORIES:
                return FrameworkSpec(name=name)
    raise ReproError(
        "parallel/cached sweeps need a pickle-safe framework spec "
        "(FrameworkSpec or a registered factory name), not %r — closures "
        "cannot cross a process boundary" % (framework,)
    )


# -- results ----------------------------------------------------------------


@dataclass(frozen=True)
class RunStats:
    """Pickle-safe summary of one run: the numbers the figures need."""

    elapsed: float
    bytes_moved: int
    events_executed: int

    @property
    def aggregate_bandwidth(self) -> float:
        """Total payload bytes over true elapsed seconds."""
        if self.elapsed <= 0:
            return 0.0
        return self.bytes_moved / self.elapsed


class Overheads:
    """The paper's two overheads of a traced/untraced pair of runs.

    A base for records that hold an ``untraced`` and a ``traced`` run,
    each with ``elapsed`` and ``aggregate_bandwidth``: a sweep's
    :class:`PointResult` and
    :class:`~repro.harness.experiment.OverheadMeasurement`.  An untraced
    run with no elapsed time or bandwidth gives an overhead of 0.0.
    """

    __slots__ = ()

    @property
    def elapsed_overhead(self) -> float:
        """The paper's §3.1 formula: (T_traced - T_untraced) / T_untraced."""
        if self.untraced.elapsed <= 0:
            return 0.0
        return (self.traced.elapsed - self.untraced.elapsed) / self.untraced.elapsed

    @property
    def bandwidth_overhead(self) -> float:
        """Fractional bandwidth loss: (BW_u - BW_t) / BW_u, in [0, 1)."""
        bw_u = self.untraced.aggregate_bandwidth
        if bw_u <= 0:
            return 0.0
        return (bw_u - self.traced.aggregate_bandwidth) / bw_u


@dataclass(frozen=True)
class PointResult(Overheads):
    """One measured sweep point, reduced to pickle-safe numbers.

    Shares :class:`Overheads` with
    :class:`~repro.harness.experiment.OverheadMeasurement`, so figure
    assembly treats the two interchangeably.  ``wall_seconds`` is the
    real (host) time the measurement took; ``cached`` marks results
    served from a :class:`RunCache`.

    ``telemetry``, present when the spec asked for it, is
    ``{"untraced": payload, "traced": payload}`` where each payload is a
    deterministic :meth:`~repro.obs.tracepoints.TelemetryCollector.export`
    dict (metrics snapshot + Chrome trace).  It is cached alongside the
    numbers, so warm-cache points return byte-identical payloads.
    """

    params: Tuple[Tuple[str, Any], ...]
    untraced: RunStats
    traced: RunStats
    wall_seconds: float = 0.0
    cached: bool = False
    telemetry: Optional[Dict[str, Any]] = None
    #: Failure annotation: ``None`` for a completed point, otherwise a
    #: one-line description ("traced: node-crash (...)").  Failed points
    #: carry zeroed/partial stats and still render (as FAILED rows).
    error: Optional[str] = None
    #: How many attempts the slower of the two runs took (retries + 1 max).
    attempts: int = 1
    #: Chaos payload (fault log, counters, per-run status) for points run
    #: under a fault schedule; canonical-JSON-clean for byte-identity.
    chaos: Optional[Dict[str, Any]] = None
    #: TraceBank run id of the traced run's archived bundle, for points
    #: executed with ``spec.store`` set (content-derived, so cache-stable).
    store_run_id: Optional[str] = None

    @property
    def events_executed(self) -> int:
        """Combined kernel-event fingerprint of both runs."""
        return self.untraced.events_executed + self.traced.events_executed

    def params_dict(self) -> Dict[str, Any]:
        """The point's workload arguments as a plain dict."""
        return dict(self.params)


@dataclass
class SweepReport:
    """Execution statistics for one :func:`run_sweep` call."""

    jobs: int
    n_points: int
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of points served from the cache (0 when empty sweep)."""
        if self.n_points <= 0:
            return 0.0
        return self.cache_hits / self.n_points


@dataclass
class SweepResult:
    """Points (in spec order) plus the sweep's execution report."""

    points: List[PointResult]
    report: SweepReport = field(default_factory=lambda: SweepReport(jobs=1, n_points=0))


# -- execution --------------------------------------------------------------


def sweep_args_for_block_size(
    base_args: Dict[str, Any], block_size: int, total_bytes_per_rank: int
) -> Dict[str, Any]:
    """Workload args for one sweep point at constant bytes per rank.

    The paper holds file size constant and varies block size, so the
    number of objects per rank is ``total_bytes_per_rank // block_size``.
    """
    nobj = max(1, total_bytes_per_rank // block_size)
    return dict(base_args, block_size=block_size, nobj=nobj)


def build_sweep_specs(
    framework: Union[FrameworkSpec, str],
    workload: str,
    base_args: Mapping[str, Any],
    block_sizes: Iterable[int],
    total_bytes_per_rank: int,
    config: Optional[TestbedConfig] = None,
    nprocs: Optional[int] = None,
    seed: Optional[int] = None,
    telemetry: bool = False,
    store: Optional[str] = None,
) -> List[RunSpec]:
    """Specs for a constant-bytes-per-rank block-size sweep (one per size)."""
    fw = as_framework_spec(framework)
    return [
        RunSpec.create(
            fw,
            workload,
            sweep_args_for_block_size(dict(base_args), bs, total_bytes_per_rank),
            config=config,
            nprocs=nprocs,
            seed=seed,
            telemetry=telemetry,
            store=store,
        )
        for bs in block_sizes
    ]


def spec_store_meta(spec: RunSpec) -> Dict[str, Any]:
    """The queryable run metadata a sweep point archives with its bundle."""
    return {
        "kind": "sweep",
        "framework": spec.framework.name,
        "framework_params": dict(spec.framework.params),
        "workload": spec.workload,
        "workload_args": dict(spec.workload_args),
        "nprocs": spec.nprocs,
        "seed": spec.seed,
    }


def ingest_spec_bundle(
    spec: RunSpec, bundle: Any, extra: Optional[Mapping[str, Any]] = None
) -> Optional[str]:
    """Archive a worker-side trace bundle when the spec asks for it.

    Returns the content-derived TraceBank run id, or None when the spec
    carries no ``store`` or the run produced no bundle.  Safe from
    concurrent workers: segment writes are atomic and content-addressed.
    """
    if spec.store is None or bundle is None:
        return None
    from repro.store.bank import TraceBank

    meta = spec_store_meta(spec)
    if extra:
        meta.update(dict(extra))
    return TraceBank(spec.store).ingest_bundle(bundle, meta=meta).run_id


def execute_spec(spec: RunSpec) -> PointResult:
    """Measure one point in this process (the process-pool worker entry).

    Runs the §3.1 protocol — the untraced leg, then the traced leg, each
    on a fresh identical testbed via :func:`~repro.harness.experiment.run_once`
    — and reduces the outcomes to a :class:`PointResult`.  With
    ``spec.telemetry`` every attempt runs in a fresh telemetry session and
    the last attempt's exported payloads ride along.  Only a timeout is
    retried, up to ``spec.retries`` times with the horizon doubled: a
    crash, an injected error or a deadlock reproduces exactly.  A plain
    spec's failed run raises its cause; a spec carrying ``faults`` or
    ``sim_timeout`` runs both legs whatever happens and is annotated by
    :func:`repro.faults.chaos.chaos_annotation`.  With ``spec.store`` the
    traced run's bundle is archived into the TraceBank there and the
    result carries its run id.
    """
    from repro.harness.experiment import run_once
    from repro.obs.tracepoints import session

    t0 = time.perf_counter()
    chaotic = spec.faults is not None or spec.sim_timeout is not None
    legs: Dict[str, Tuple[Any, int]] = {}
    payloads: Dict[str, Any] = {}
    for leg, factory in (("untraced", None), ("traced", spec.framework.build)):
        horizon = spec.sim_timeout
        attempts = 0
        while True:
            attempts += 1
            with (session() if spec.telemetry else nullcontext()) as col:
                outcome = run_once(
                    spec.workload_fn(), spec.args_dict(), factory,
                    config=spec.config, nprocs=spec.nprocs, seed=spec.seed,
                    faults=spec.faults, horizon=horizon,
                )
                if col is not None:
                    payloads[leg] = col.export(end_time=outcome.elapsed)
            if outcome.status != "timeout" or attempts > spec.retries:
                break
            horizon *= 2.0
        if not chaotic:
            outcome.raise_cause()
        legs[leg] = (outcome, attempts)
    chaos, error, extra = None, None, None
    if chaotic:
        from repro.faults.chaos import chaos_annotation

        chaos, error, extra = chaos_annotation(spec, legs)
    # Ingest outside the sessions so archive tracepoints never leak
    # into the measurement's telemetry payloads.
    run_id = ingest_spec_bundle(spec, legs["traced"][0].bundle, extra=extra)
    return PointResult(
        params=spec.workload_args,
        untraced=legs["untraced"][0].stats,
        traced=legs["traced"][0].stats,
        wall_seconds=time.perf_counter() - t0,
        telemetry=payloads or None,
        error=error,
        attempts=max(attempts for _outcome, attempts in legs.values()),
        chaos=chaos,
        store_run_id=run_id,
    )


def execute_spec_safe(spec: RunSpec) -> PointResult:
    """:func:`execute_spec`, degrading library failures to annotated points.

    A point that raises a :class:`~repro.errors.ReproError` (injected I/O
    storm, deadlock, mis-specified schedule...) becomes a zero-stats
    result with ``error`` set instead of aborting the whole sweep —
    figures still come out, with the failed point annotated.  Non-library
    exceptions (genuine bugs) still propagate.
    """
    try:
        return execute_spec(spec)
    except ReproError as exc:
        return PointResult(
            params=spec.workload_args,
            untraced=RunStats(0.0, 0, 0),
            traced=RunStats(0.0, 0, 0),
            error="%s: %s" % (type(exc).__name__, exc),
        )


def _store_has_run(store: str, run_id: str) -> bool:
    """Whether ``run_id`` is actually present in the ``store`` archive.

    Guards cache hits for archived specs: the cache key deliberately
    excludes the store *path* (run ids are content-derived), so a hit can
    carry a run id that was ingested into a different archive.  Serving
    that hit against a fresh store would hand out a dangling run id.
    """
    from repro.errors import ReproError as _ReproError
    from repro.store.bank import TraceBank

    try:
        TraceBank(store, create=False).manifest(run_id)
        return True
    except (_ReproError, OSError):
        return False


def run_sweep(
    specs: List[RunSpec],
    jobs: int = 1,
    cache: Optional[Any] = None,
    progress: Optional[Callable[[int, int, PointResult], None]] = None,
) -> SweepResult:
    """Execute every spec, in parallel when ``jobs > 1``, cache-first.

    Points already in ``cache`` (a :class:`~repro.harness.runcache.RunCache`)
    are served from disk; misses are executed — fanned out over a
    ``ProcessPoolExecutor`` when ``jobs > 1`` — and written back.  The
    returned points are in spec order, so output ordering never depends on
    worker completion order.

    ``progress``, when given, is called as ``progress(done, total, point)``
    after each point completes (cache hits first, then fresh points as the
    pool yields them).  It only observes the sweep — results are identical
    with or without it.
    """
    if jobs < 1:
        raise ReproError("jobs must be >= 1, got %r" % (jobs,))
    t0 = time.perf_counter()
    results: List[Optional[PointResult]] = [None] * len(specs)
    pending: List[Tuple[int, RunSpec]] = []
    hits = 0
    done = 0
    total = len(specs)
    for i, spec in enumerate(specs):
        got = cache.get(spec) if cache is not None else None
        if (
            got is not None
            and spec.store is not None
            and got.store_run_id is not None
            and not _store_has_run(spec.store, got.store_run_id)
        ):
            # Archived point cached from a run against a *different*
            # store: the numbers are valid but the bundle is not in this
            # archive.  Re-execute so the ingest happens here too.
            got = None
        if got is not None:
            results[i] = replace(got, cached=True)
            hits += 1
            done += 1
            if progress is not None:
                progress(done, total, results[i])
        else:
            pending.append((i, spec))
    if pending:
        todo = [spec for _i, spec in pending]
        if jobs > 1 and len(todo) > 1:
            with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
                fresh_iter = pool.map(execute_spec_safe, todo)
                fresh = []
                for point in fresh_iter:
                    fresh.append(point)
                    done += 1
                    if progress is not None:
                        progress(done, total, point)
        else:
            fresh = []
            for spec in todo:
                point = execute_spec_safe(spec)
                fresh.append(point)
                done += 1
                if progress is not None:
                    progress(done, total, point)
        for (i, spec), point in zip(pending, fresh):
            results[i] = point
            # A failure that came from an exception (no chaos record) may
            # not recur — a bad store path, a missing registration — so
            # only completed and chaos-annotated points are cached.
            if cache is not None and (point.error is None or point.chaos is not None):
                cache.put(spec, point)
    report = SweepReport(
        jobs=jobs,
        n_points=len(specs),
        cache_hits=hits,
        cache_misses=len(pending),
        wall_seconds=time.perf_counter() - t0,
    )
    return SweepResult(points=[p for p in results if p is not None], report=report)

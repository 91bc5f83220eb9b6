"""The zoo matrix: run every registered scenario through the §3.1 harness.

``run_zoo_matrix`` lowers each scenario to a :class:`RunSpec`, fans the
points over :func:`~repro.harness.parallel.run_sweep` (process pool +
run cache + optional TraceBank archiving — nothing zoo-specific), and
assembles a ``repro/zoo/v1`` report:

* one deterministic **row** per scenario — simulated elapsed for both
  runs, the §3.1 overhead, the payload report aggregated over ranks, the
  archived run id, and the scenario's *signature check* (does the traced
  run's compiled op profile actually show the declared dominant class?);
* a separate **execution** section for host-clock facts (wall seconds,
  cache hits) that legitimately differ between runs.

The rows contain no host clock and no machine state, so
``canonical_json(report["rows"])`` is byte-identical across ``jobs=1``/
``jobs=N`` and cold/warm cache — the determinism contract the zoo tests
pin, same as the figure sweeps.

With ``replay_check=True`` (requires ``store``) each archived scenario
is immediately replayed from its run id through
:func:`~repro.zoo.replaypipe.replay_pipeline` and the row carries the
fidelity verdict — the capture→archive→replay acceptance loop as one
flag.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import InvalidArgument
from repro.harness.parallel import PointResult, RunSpec, run_sweep
from repro.obs.metrics import canonical_json
from repro.replay.fidelity import schedule_profile
from repro.replay.pseudoapp import build_pseudoapp
from repro.trace.events import EventLayer
from repro.zoo.registry import SCENARIOS, ZooScenario, get

__all__ = [
    "build_zoo_specs",
    "check_signature",
    "run_zoo_matrix",
    "render_zoo_report",
]

ZOO_SCHEMA = "repro/zoo/v1"


def _select(scenarios: Optional[Sequence[str]]) -> List[ZooScenario]:
    if scenarios is None:
        return list(SCENARIOS.values())
    if not scenarios:
        raise InvalidArgument("empty zoo scenario selection")
    return [get(name) for name in scenarios]


def build_zoo_specs(
    scenarios: Optional[Sequence[str]] = None,
    smoke: bool = False,
    seed: int = 0,
    framework: Optional[str] = None,
    telemetry: bool = False,
    store: Optional[str] = None,
) -> List[RunSpec]:
    """One spec per selected scenario, registry order."""
    return [
        sc.spec(
            seed=seed,
            smoke=smoke,
            framework=framework,
            telemetry=telemetry,
            store=store,
        )
        for sc in _select(scenarios)
    ]


def check_signature(
    scenario: ZooScenario, profile: Dict[str, Any]
) -> List[str]:
    """Violations of the scenario's declared I/O signature (empty = ok).

    ``profile`` is a :func:`~repro.replay.fidelity.schedule_profile` of
    the traced run's compiled op schedule.  The check is deliberately
    coarse — dominance, not exact mixes — so honest parameter changes do
    not trip it, while a scenario that silently stopped reading (or
    started moving payload it should not) does.
    """
    sig = scenario.signature_dict()
    classes = profile["classes"]
    violations: List[str] = []
    dominant = sig.get("dominant")
    if dominant in ("read", "write"):
        other = "write" if dominant == "read" else "read"
        if classes[dominant]["bytes"] <= 0:
            violations.append("expected %s payload, saw none" % dominant)
        elif classes[dominant]["bytes"] < classes[other]["bytes"]:
            violations.append(
                "expected %s-dominant payload, saw %s=%d < %s=%d bytes"
                % (dominant, dominant, classes[dominant]["bytes"],
                   other, classes[other]["bytes"])
            )
    elif dominant == "metadata":
        if classes["metadata"]["count"] <= 0:
            violations.append("expected metadata ops, saw none")
        data_ops = classes["read"]["count"] + classes["write"]["count"]
        if classes["metadata"]["count"] <= data_ops:
            violations.append(
                "expected metadata-dominant op mix, saw metadata=%d <= data=%d"
                % (classes["metadata"]["count"], data_ops)
            )
    if sig.get("payload") is False and profile["total_bytes"] > 0:
        violations.append(
            "expected zero payload, saw %d bytes" % profile["total_bytes"]
        )
    if sig.get("payload") is True and profile["total_bytes"] <= 0:
        violations.append("expected payload bytes, saw none")
    return violations


def _signature_cell(
    scenario: ZooScenario, point: PointResult, store: Optional[str]
) -> Optional[Dict[str, Any]]:
    """The row's signature check, from the archived traced bundle.

    Only possible when the point archived its bundle (``--store``): the
    archive is the ground truth the check reads — the same bytes a later
    replay will compile.
    """
    if store is None or point.store_run_id is None:
        return None
    from repro.store.bank import TraceBank

    bank = TraceBank(store)
    bundle = bank.load_run_bundle(bank.manifest(point.store_run_id))
    app = build_pseudoapp(bundle, layer=EventLayer.SYSCALL)
    profile = schedule_profile(app)
    violations = check_signature(scenario, profile)
    return {
        "expected": scenario.signature_dict(),
        "observed": {
            cls: dict(profile["classes"][cls]) for cls in profile["classes"]
        },
        "violations": violations,
        "ok": not violations,
    }


def run_zoo_matrix(
    scenarios: Optional[Sequence[str]] = None,
    smoke: bool = False,
    seed: int = 0,
    jobs: int = 1,
    cache: Optional[Any] = None,
    progress: Optional[Callable] = None,
    framework: Optional[str] = None,
    store: Optional[str] = None,
    replay_check: bool = False,
) -> Dict[str, Any]:
    """Run the selected scenarios and assemble the zoo report."""
    if replay_check and store is None:
        raise InvalidArgument("replay_check requires a --store archive")
    selected = _select(scenarios)
    specs = build_zoo_specs(
        [sc.name for sc in selected],
        smoke=smoke,
        seed=seed,
        framework=framework,
        store=store,
    )
    t0 = time.perf_counter()
    result = run_sweep(specs, jobs=jobs, cache=cache, progress=progress)

    rows: List[Dict[str, Any]] = []
    replay_bench: List[Dict[str, Any]] = []
    for sc, spec, point in zip(selected, specs, result.points):
        row: Dict[str, Any] = {
            "scenario": sc.name,
            "title": sc.title,
            "workload": sc.workload,
            "framework": spec.framework.name,
            "nprocs": sc.nprocs,
            "smoke": bool(smoke),
            "params": spec.args_dict(),
            "elapsed_untraced": point.untraced.elapsed,
            "elapsed_traced": point.traced.elapsed,
            "overhead_pct": 100.0 * point.elapsed_overhead,
            "bytes_moved": point.untraced.bytes_moved,
            "events_executed": point.events_executed,
            "error": point.error,
            "store_run_id": point.store_run_id,
            "signature": _signature_cell(sc, point, store),
        }
        if replay_check and point.store_run_id is not None:
            from repro.zoo.replaypipe import replay_pipeline

            r0 = time.perf_counter()
            fid = replay_pipeline([point.store_run_id], store=store, seed=seed)
            replay_wall = time.perf_counter() - r0
            row["fidelity"] = {
                "exact": fid["exact"],
                "timing": fid["replay"]["timing"],
                "per_class": fid["per_class"],
                "unreplayable": fid["source"]["unreplayable"],
                "skipped": fid["replay"]["profile"].get("skipped", {}),
            }
            replay_bench.append(
                {
                    "scenario": sc.name,
                    "events_executed": fid["replay"]["events_executed"],
                    "wall_seconds": replay_wall,
                }
            )
        rows.append(row)

    report = {
        "schema": ZOO_SCHEMA,
        "smoke": bool(smoke),
        "seed": seed,
        "scenarios": [sc.describe() for sc in selected],
        "rows": json.loads(canonical_json(rows)),
        "summary": {
            "points": len(rows),
            "completed": sum(1 for r in rows if r["error"] is None),
            "archived": sum(1 for r in rows if r["store_run_id"] is not None),
            "signature_ok": sum(
                1 for r in rows if r["signature"] and r["signature"]["ok"]
            ),
            "replay_exact": sum(
                1 for r in rows if r.get("fidelity", {}).get("exact")
            ),
        },
        # Host-clock facts live here, never in the rows: the rows are the
        # byte-identity surface, this section is allowed to differ.
        "execution": {
            "jobs": jobs,
            "wall_seconds": time.perf_counter() - t0,
            "cache_hits": result.report.cache_hits,
            "cache_misses": result.report.cache_misses,
            "replay_bench": replay_bench,
        },
    }
    return json.loads(canonical_json(report))


def render_zoo_report(report: Dict[str, Any]) -> str:
    """The matrix as a text table: one row per scenario."""
    lines = [
        "Workload zoo (%s scale): %d scenario(s), %d completed, %d archived"
        % (
            "smoke" if report["smoke"] else "full",
            report["summary"]["points"],
            report["summary"]["completed"],
            report["summary"]["archived"],
        ),
        "%-14s %12s %12s %10s %11s %-9s %-7s %s"
        % ("scenario", "untraced(s)", "traced(s)", "overhead",
           "bytes", "signature", "replay", "run id"),
        "-" * 100,
    ]
    for row in report["rows"]:
        if row["error"] is not None:
            lines.append("%-14s FAILED: %s" % (row["scenario"], row["error"]))
            continue
        sig = row["signature"]
        sig_txt = "-" if sig is None else ("ok" if sig["ok"] else "VIOLATED")
        fid = row.get("fidelity")
        fid_txt = "-" if fid is None else ("exact" if fid["exact"] else "DRIFT")
        lines.append(
            "%-14s %12.6f %12.6f %9.1f%% %11d %-9s %-7s %s"
            % (
                row["scenario"],
                row["elapsed_untraced"],
                row["elapsed_traced"],
                row["overhead_pct"],
                row["bytes_moved"],
                sig_txt,
                fid_txt,
                (row["store_run_id"] or "-")[:12],
            )
        )
    for row in report["rows"]:
        sig = row["signature"]
        if sig and not sig["ok"]:
            for v in sig["violations"]:
                lines.append("  signature %s: %s" % (row["scenario"], v))
    return "\n".join(lines) + "\n"

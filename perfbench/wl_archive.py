"""``archive`` stage: TraceBank ingest and analysis over real traced bundles.

Set-up simulates three sweep points of the input family's block size
and the four zoo scenarios with LANL-Trace attached and keeps their
bundles in memory.  One cycle:

1. ingest every bundle into a fresh archive with the default codec,
   and the sweep bundles into three more fresh archives (so a run holds
   enough ingests for a steady p90);
2. re-ingest the sweep bundles (full dedup);
3. round-robin over ``run_query`` (all four aggregates, each with a
   rank and a metadata pushdown filter) and ``build_dfg`` over the
   sweep runs, then replay the four zoo runs in turn, three times;
4. ``diagnose_archive`` and ``verify`` once.

Each op class is one kind of call on inputs of similar size, so its
percentiles do not straddle two cost modes: ``ingest`` is a sweep
bundle's first ingest, ``query`` and ``dfg`` scan the same runs every
time, and one ``replay`` op replays all four zoo runs (their costs
differ by 2x, so a single replay would be a mix of four modes).

Query results, DFG graphs and diagnose outlier sets must match the
shipped references.  They are compared with run ids replaced by each
run's label, because run ids depend on the segment codec.  Every replay
must be exact and ``verify`` clean.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Tuple

from perfbench.core import Stage

KiB = 1024
MiB = 1024 * KiB

#: Sweep points share one block size, so their ingests form one op class
#: whose percentiles do not straddle two cost modes.
SCALES: Dict[str, Dict[str, Any]] = {
    "small-io": {
        "fig_points": ((2, 256 * KiB), (3, 256 * KiB), (4, 256 * KiB)),
        "nprocs": 16,
        "bytes_per_rank": 16 * MiB,
        "zoo_smoke": False,
        "rounds": 16,
        "spares": 3,
        "replay_rounds": 3,
    },
    "large-io": {
        "fig_points": ((2, 1024 * KiB), (3, 1024 * KiB), (4, 1024 * KiB)),
        "nprocs": 16,
        "bytes_per_rank": 16 * MiB,
        "zoo_smoke": False,
        "rounds": 16,
        "spares": 3,
        "replay_rounds": 3,
    },
    "tiny": {
        "fig_points": ((4, 1024 * KiB),),
        "nprocs": 4,
        "bytes_per_rank": 1 * MiB,
        "zoo_smoke": True,
        "rounds": 2,
        "spares": 1,
        "replay_rounds": 1,
    },
}

AGGS = ("ops", "bytes", "bandwidth", "events")
#: Name filters of the two name-pushdown query families (fixed, so the
#: work a query does is the same for every seed).
RANK_NAMES = ("SYS_write", "SYS_pread64")
ZOO_NAMES = ("SYS_open", "SYS_fsync", "SYS_mkdir")


def _canon(obj: Any, labels: Dict[str, str]) -> Any:
    """Run ids -> labels, floats -> 9 significant digits, keys sorted."""
    if isinstance(obj, dict):
        return {labels.get(k, k): _canon(v, labels) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_canon(v, labels) for v in obj]
    if isinstance(obj, float):
        return float("%.9g" % obj)
    if isinstance(obj, str):
        return labels.get(obj, obj)
    return obj


def digest(obj: Any, labels: Dict[str, str]) -> str:
    """Codec-independent fingerprint of a report section."""
    blob = json.dumps(_canon(obj, labels), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _dir_bytes(path: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in path.glob(pattern))


class Archive(Stage):
    name = "archive"
    per_layer = (
        "store.ingest_s", "store.ingest_dedup_s", "store.segments_new",
        "store.segments_deduped", "store.bytes_written", "store.fsyncs",
        "store.query_s", "store.segments_scanned", "store.segments_pruned",
        "store.events_matched", "store.dfg_s", "obs.diagnose_s", "store.verify_s",
        "zoo.load_s", "replay.build_s", "replay.sim_s", "replay.fidelity_s",
        "replay.des_events", "self.store_s", "self.obs_s", "self.zoo_s",
        "self.replay_s",
    )

    def __init__(self, ctx):
        super().__init__(ctx)
        #: Segment and manifest bytes per archived event (exact: every
        #: cycle archives the same bundles into a fresh archive).
        self.bytes_per_event = 0.0

    def setup(self) -> None:
        from repro.harness.experiment import run_traced, sweep_args_for_block_size
        from repro.harness.figures import FIGURE_PATTERNS, paper_testbed
        from repro.harness.parallel import FRAMEWORK_FACTORIES, WORKLOADS
        from repro.zoo import registry

        ctx = self.ctx
        p = SCALES[ctx.family]
        self.p = p
        factory = lambda: FRAMEWORK_FACTORIES["lanl-trace"]({})  # noqa: E731
        self.bundles: List[Tuple[str, Any, Dict[str, Any]]] = []
        for fig, bs in p["fig_points"]:
            with ctx.timed("setup"):
                args = sweep_args_for_block_size(
                    {"pattern": FIGURE_PATTERNS[fig], "path": "/pfs/mpi_io_test.out"},
                    bs, p["bytes_per_rank"],
                )
                out, traced = run_traced(
                    factory, WORKLOADS["mpi_io_test"], args,
                    paper_testbed(ctx.variant, p["nprocs"]), p["nprocs"], ctx.variant,
                )
            label = "fig%d-%dk" % (fig, bs // KiB)
            self.bundles.append((label, traced.bundle, {
                "kind": "sweep", "label": label, "workload": "mpi_io_test",
                "figure": fig, "block_size": bs, "nprocs": p["nprocs"],
                "elapsed": out.elapsed,
            }))
        for name in registry.names():
            scenario = registry.get(name)
            overrides = {"shuffle_seed": ctx.variant} if name == "ml-epoch" else None
            with ctx.timed("setup"):
                out, traced = run_traced(
                    factory, WORKLOADS[scenario.workload],
                    scenario.args(smoke=p["zoo_smoke"], overrides=overrides),
                    registry.zoo_testbed(ctx.variant, scenario.nprocs),
                    scenario.nprocs, ctx.variant,
                )
            self.bundles.append((name, traced.bundle, {
                "kind": "zoo", "label": name, "scenario": name,
                "nprocs": scenario.nprocs, "elapsed": out.elapsed,
            }))
        with ctx.timed("setup"):
            self._plan()

    def _plan(self) -> None:
        """The seed's query, DFG and replay schedule over the bundles.

        The schedule's shape (which families, aggregates, bundles and
        scenarios) is fixed; the seed picks ranks, so every seed asks for
        about the same work.
        """
        from repro.store.query import Query

        rng = random.Random(1000 + self.ctx.variant)
        p = self.p
        self.reingest = [label for label, _b, m in self.bundles if m["kind"] == "sweep"]
        self.zoo = [label for label, _b, m in self.bundles if m["kind"] == "zoo"]
        self.queries = []
        self.dfgs = []
        for i in range(p["rounds"]):
            agg = AGGS[(i // 2) % len(AGGS)]
            if i % 2 == 0:
                q = Query.create(agg=agg, ranks=rng.sample(range(4), 2),
                                 names=list(RANK_NAMES))
            else:
                q = Query.create(agg=agg, where={"kind": "zoo"},
                                 names=list(ZOO_NAMES))
            self.queries.append(q)
            self.dfgs.append(Query.create(
                where={"kind": "sweep"}, ranks=rng.sample(range(4), 3),
            ))

    def cycle(self, traced: bool) -> None:
        from repro.host.pyio import PyIOTracer
        from repro.obs.diagnose import diagnose_archive
        from repro.replay import build_pseudoapp, fidelity_report, replay
        from repro.store.bank import TraceBank
        from repro.store.dfg import build_dfg
        from repro.store.query import run_query
        from repro.zoo.replaypipe import choose_layer, load_source, source_elapsed

        ctx = self.ctx
        root = ctx.workdir / ("archive-%d" % ctx.cycle_index)
        bank = TraceBank(root)
        counts: Dict[str, float] = {}

        def add(key: str, value: float) -> None:
            counts[key] = counts.get(key, 0.0) + value

        by_label = {label: (bundle, meta) for label, bundle, meta in self.bundles}
        run_ids: Dict[str, str] = {}
        io = PyIOTracer() if traced else None
        if io is not None:
            io.__enter__()
        try:
            events = 0
            for label, bundle, meta in self.bundles:
                cls = "ingest" if meta["kind"] == "sweep" else "ingest_zoo"
                with ctx.timed(cls), ctx.span("store", "ingest"):
                    res = bank.ingest_bundle(bundle, meta=meta)
                run_ids[label] = res.run_id
                events += res.events
                add("store.segments_new", res.new_segments)
                ctx.check(res.manifest_new and res.new_segments == res.segments,
                          "archive ingest %s: not new" % label)
                ctx.expect("ingest/%s" % label, [res.segments, res.events],
                           "archive ingest %s (segments, events)" % label)
            for k in range(self.p["spares"]):
                spare = TraceBank(ctx.workdir / ("archive-%d-spare%d" % (ctx.cycle_index, k)))
                for label in self.reingest:
                    bundle, meta = by_label[label]
                    with ctx.timed("ingest"), ctx.span("store", "ingest"):
                        res = spare.ingest_bundle(bundle, meta=meta)
                    ctx.check(res.manifest_new and res.new_segments == res.segments,
                              "archive ingest %s into a spare archive: not new" % label)
            for label in self.reingest:
                bundle, meta = by_label[label]
                with ctx.timed("ingest_dedup"), ctx.span("store", "ingest_dedup"):
                    res = bank.ingest_bundle(bundle, meta=meta)
                add("store.segments_deduped", res.deduped_segments)
                ctx.check(
                    res.run_id == run_ids[label] and not res.manifest_new
                    and res.new_segments == 0 and res.deduped_segments == res.segments,
                    "archive re-ingest %s: not a full dedup" % label,
                )
        finally:
            if io is not None:
                io.__exit__(None, None, None)
        labels = {run_id: label for label, run_id in run_ids.items()}
        written = _dir_bytes(bank.segments_dir, "*/*.seg") + _dir_bytes(
            bank.manifests_dir, "*.json")
        add("store.bytes_written", written)
        self.bytes_per_event = written / events if events else 0.0
        if io is not None:
            add("store.fsyncs", sum(1 for e in io.trace.events if e.name == "SYS_fsync"))

        for i, (query, dfg_query) in enumerate(zip(self.queries, self.dfgs)):
            with ctx.timed("query"), ctx.span("store", "query"):
                rep = run_query(bank, query)
            for key in ("segments_scanned", "segments_pruned", "events_matched"):
                add("store." + key, rep["scan"][key])
            ctx.expect("query/%d" % i, digest(rep["result"], labels),
                       "archive query %d (%s) result" % (i, query.agg))
            with ctx.timed("dfg"), ctx.span("store", "dfg"):
                dfg = build_dfg(bank, dfg_query)
            graph = {k: dfg["graph"][k] for k in ("nodes", "edges", "starts", "ends")}
            ctx.expect("dfg/%d" % i, digest(graph, labels), "archive dfg %d graph" % i)

        for _round in range(self.p["replay_rounds"]):
            reports = []
            with ctx.timed("replay"):
                for label in self.zoo:
                    with ctx.span("zoo", "load"):
                        bundle, resolution = load_source([run_ids[label]], store=root)
                    with ctx.span("replay", "build"):
                        app = build_pseudoapp(bundle, layer=choose_layer(bundle))
                    with ctx.span("replay", "sim"):
                        result = replay(app, seed=0, timing="afap")
                    with ctx.span("replay", "fidelity"):
                        report = fidelity_report(
                            app, result, source_label=resolution["run_id"],
                            original_elapsed=source_elapsed(bundle),
                        )
                    add("replay.des_events", result.events_executed)
                    reports.append((label, report))
            for label, report in reports:
                ctx.check(bool(report.get("exact")), "archive replay %s not exact" % label)
                ctx.expect("replay/%s" % label, digest(report["per_class"], labels),
                           "archive replay %s per-class fidelity" % label)

        with ctx.timed("diagnose"), ctx.span("obs", "diagnose"):
            diag = diagnose_archive(str(root))
        ctx.expect("diagnose", sorted(labels[o["run_id"]] for o in diag["outliers"]),
                   "archive diagnose outlier set")
        with ctx.timed("verify"), ctx.span("store", "verify"):
            ver = bank.verify()
        ctx.check(ver["ok"] and not ver["orphan_segments"]
                  and ver["runs"] == len(self.bundles),
                  "archive verify: %s" % {k: ver[k] for k in ("ok", "runs", "errors")})
        if traced:
            self.cycle_counts.append(counts)

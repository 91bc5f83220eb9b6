"""``figures`` stage: the paper's Fig 2-4 sweep points, serial, cache-cold.

Each point is the taxonomy's overhead protocol (§3.1) spelled out with
the harness's public calls: an empty-cache ``RunCache.get``, a fresh
testbed and an untraced ``mpirun``, a second identical testbed with
LANL-Trace attached, a traced ``mpirun`` and ``finalize``, then
``RunCache.put``.  Each input family sweeps the three access patterns
over its own block sizes (together they span the paper's 64 KiB to
8 MiB); the seed picks the cluster seed and the point order.  Every
point's simulated elapsed times must equal the shipped references to
1e-9 relative, every overhead must stay inside the band EXPERIMENTS.md
reports, and for each pattern the overhead must fall as the block size
grows, the figures' shape.  Kernel event counts are reported, not
checked: vectored I/O is meant to lower them.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from perfbench.core import Stage

KiB = 1024
MiB = 1024 * KiB

#: EXPERIMENTS.md: overheads from 11% (full sweep) to 222% (paper).
BAND = (0.10, 2.22)

SCALES: Dict[str, Dict[str, Any]] = {
    "small-io": {
        "nprocs": 16,
        "bytes_per_rank": 16 * MiB,
        "figures": (2, 3, 4),
        "block_sizes": (64 * KiB, 256 * KiB),
        "band": BAND,
        "falls": True,
    },
    "large-io": {
        "nprocs": 16,
        "bytes_per_rank": 16 * MiB,
        "figures": (2, 3, 4),
        "block_sizes": (1024 * KiB, 8192 * KiB),
        "band": BAND,
        "falls": True,
    },
    "tiny": {
        "nprocs": 4,
        "bytes_per_rank": 1 * MiB,
        "figures": (2, 4),
        "block_sizes": (64 * KiB, 1024 * KiB),
        # Too small for the figures' shape: only its own references hold.
        "band": (0.0, 5.0),
        "falls": False,
    },
}
#: Exact per-layer counts from one telemetry pass.  ``mpi_io_test`` does
#: no local-disk I/O and sends no point-to-point messages, so the disk
#: and message counters are not among them (they read 0).
_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("simos.calls", "os.calls."),
    ("cluster.net_transfers", "net.transfers"),
    ("simfs.pfs_chunks", "pfs."),
    ("simfs.extent_locks", "pfs.extent_locks"),
    ("simmpi.collectives", "mpi.collective."),
)


def _payload(job: Any) -> int:
    return sum(
        int(getattr(r, "bytes_written", 0) or 0) + int(getattr(r, "bytes_read", 0) or 0)
        for r in job.results
    )


def _rel_ok(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-9 * max(abs(want), 1e-12)


class Figures(Stage):
    name = "figures"
    per_layer = (
        "harness.testbed_s", "simmpi.mpirun_untraced_s", "simmpi.mpirun_traced_s",
        "frameworks.trace_cost_s", "frameworks.prepare_s", "frameworks.finalize_s",
        "harness.runcache_s", "des.events", "des.host_us_per_event",
        "self.harness_s", "self.simmpi_s", "self.frameworks_s",
    ) + tuple(metric for metric, _prefix in _COUNTERS)

    def setup(self) -> None:
        from repro.harness.figures import FIGURE_PATTERNS, paper_testbed
        from repro.harness.experiment import sweep_args_for_block_size
        from repro.harness.parallel import RunSpec, WORKLOADS

        ctx = self.ctx
        with ctx.timed("setup"):
            p = SCALES[ctx.family]
            self.p = p
            self.config = paper_testbed(seed=ctx.variant, nprocs=p["nprocs"])
            self.workload = WORKLOADS["mpi_io_test"]
            points: List[Tuple[int, int]] = [
                (fig, bs) for fig in p["figures"] for bs in p["block_sizes"]
            ]
            random.Random(ctx.variant).shuffle(points)
            self.points = []
            for fig, bs in points:
                args = sweep_args_for_block_size(
                    {"pattern": FIGURE_PATTERNS[fig], "path": "/pfs/mpi_io_test.out"},
                    bs, p["bytes_per_rank"],
                )
                spec = RunSpec.create(
                    "lanl-trace", "mpi_io_test", args, config=self.config,
                    nprocs=p["nprocs"], seed=ctx.variant,
                )
                self.points.append((fig, bs, spec))
        # Warm-up: the cheapest point, untraced, so lazy imports and
        # first-call costs land here and not in the first timed cycle.
        with ctx.timed("setup"):
            fig, bs, spec = min(self.points, key=lambda t: (-t[1], t[0]))
            self._untraced(spec)

    def _untraced(self, spec: Any) -> Tuple[Any, int]:
        from repro.harness.testbed import build_testbed
        from repro.simmpi.runtime import mpirun

        ctx = self.ctx
        with ctx.span("harness", "testbed"):
            tb = build_testbed(spec.config, seed=spec.seed)
        with ctx.span("simmpi", "mpirun_untraced"):
            job = mpirun(tb.cluster, tb.vfs, self.workload,
                         nprocs=spec.nprocs, args=spec.args_dict())
        return job, tb.sim.events_executed

    def _traced(self, spec: Any) -> Tuple[Any, int]:
        from repro.harness.testbed import build_testbed
        from repro.simmpi.runtime import mpirun

        ctx = self.ctx
        with ctx.span("harness", "testbed"):
            tb = build_testbed(spec.config, seed=spec.seed)
        with ctx.span("frameworks", "prepare"):
            fw = spec.framework.build()
            fw.prepare(tb)
            app = fw.wrap_app(self.workload)
        with ctx.span("simmpi", "mpirun_traced"):
            job = mpirun(tb.cluster, tb.vfs, app, nprocs=spec.nprocs,
                         args=spec.args_dict(), setup=fw.setup_rank)
        with ctx.span("frameworks", "finalize"):
            fw.finalize(job)
        return job, tb.sim.events_executed

    def _point(self, cache: Any, spec: Any) -> Tuple[Any, bool]:
        from repro.harness.parallel import PointResult, RunStats

        ctx = self.ctx
        with ctx.span("harness", "runcache"):
            hit = cache.get(spec)
        job_u, ev_u = self._untraced(spec)
        job_t, ev_t = self._traced(spec)
        result = PointResult(
            params=spec.workload_args,
            untraced=RunStats(job_u.elapsed, _payload(job_u), ev_u),
            traced=RunStats(job_t.elapsed, _payload(job_t), ev_t),
        )
        with ctx.span("harness", "runcache"):
            cache.put(spec, result)
        return result, hit is None

    def cycle(self, traced: bool) -> None:
        from repro.harness.runcache import RunCache

        ctx = self.ctx
        cache_dir = ctx.workdir / ("runcache-%d" % ctx.cycle_index)
        cache = RunCache(cache_dir)
        overheads: Dict[Tuple[int, int], float] = {}
        events = 0
        for fig, bs, spec in self.points:
            with ctx.timed("point"):
                result, missed = self._point(cache, spec)
            events += result.events_executed
            overheads[fig, bs] = result.elapsed_overhead
            ctx.check(missed, "figures point fig%d/%dKiB: hit in an empty run cache"
                      % (fig, bs // KiB))
            ctx.expect(
                "%d/%d" % (fig, bs),
                [result.untraced.elapsed, result.traced.elapsed],
                "figures point fig%d/%dKiB simulated elapsed (untraced, traced)"
                % (fig, bs // KiB),
                same=lambda a, b: len(b) == 2 and all(map(_rel_ok, a, b)),
            )
        lo, hi = self.p["band"]
        ctx.check(all(lo <= o <= hi for o in overheads.values()),
                  "figures overheads %s outside %.2f..%.2f"
                  % (sorted(overheads.values()), lo, hi))
        for fig in self.p["figures"] if self.p["falls"] else ():
            row = [overheads[fig, bs] for bs in self.p["block_sizes"]]
            ctx.check(all(a > b for a, b in zip(row, row[1:])),
                      "figures fig%d overhead %s does not fall with block size"
                      % (fig, row))
        if traced:
            self.cycle_counts.append({"des.events": float(events)})

    def derive(self, layers: Dict[str, float]) -> Dict[str, float]:
        untraced = layers.get("simmpi.mpirun_untraced_s", 0.0)
        traced = layers.get("simmpi.mpirun_traced_s", 0.0)
        events = layers.get("des.events", 0.0)
        return {
            "frameworks.trace_cost_s": traced - untraced,
            "des.host_us_per_event": 1e6 * (untraced + traced) / events if events else 0.0,
        }

    def finish(self, traced: bool) -> Dict[str, float]:
        if not traced:
            return {}
        from repro.obs.tracepoints import TelemetryConfig, session

        # One telemetry pass over the cycle's points: exact counts per layer.
        with session(TelemetryConfig(spans=False)) as col:
            for _fig, _bs, spec in self.points:
                self._untraced(spec)
                self._traced(spec)
        counters = col.metrics.snapshot()["counters"]
        out: Dict[str, float] = {}
        for metric, prefix in _COUNTERS:
            if prefix.endswith("."):
                keys = [k for k in counters if k.startswith(prefix)]
                if prefix == "pfs.":
                    keys = [k for k in keys if k.endswith(".ops")]
            else:
                keys = [prefix] if prefix in counters else []
            out[metric] = float(sum(counters[k] for k in keys))
        return out

"""Drift-normalized timing, in-memory spans and the pipeline's run loop.

Host CPU speed on a small shared machine drifts by tens of percent over
seconds, so a raw timing says as much about the neighbours as about the
program.  :class:`Meter` therefore runs a fixed pure-Python reference
probe between operations (never more than ``budget_s`` seconds of work
apart) and scales each operation's seconds by
``nominal_s / mean(probe before, probe after)``.  Raw and normalized
seconds are both kept and both printed.

Operations the benchmark process runs itself are timed in this
process's CPU seconds, and so is the probe: time the host gives to
others (a stolen vCPU, a neighbour's disk flush delaying an fsync) is
not the program's cost.  A stage whose work runs in another process
(``service``) times its operations on the wall clock instead.

:class:`Spans` records spans in memory around the benchmark's own calls
into the program's layers (only in a traced round); a layer's self time
is its spans' durations minus the part their child spans cover.

Every workload runs the same pipeline of three stages per round --
``figures`` (the paper's sweep points), ``archive`` (TraceBank in
process) and ``service`` (the HTTP service) -- on its own input family,
so every workload reports every metric.
"""

from __future__ import annotations

import ctypes
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from heapq import heappop, heappush
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
CONFIG: Dict[str, Any] = json.loads((HERE / "config.json").read_text("utf-8"))

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = int(CONFIG["setup_reps"])

#: ``(metric prefix, op class)``: untraced ``p50``/``p90`` end-to-end metrics.
PERCENTILES = (
    ("ingest", "ingest"), ("query", "query"), ("dfg", "dfg"),
    ("replay", "replay"), ("http_ingest", "http_ingest"),
)
#: Every end-to-end metric, in the order ``BENCHMARK.json`` lists them.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "sweep_s", "service_s") + tuple(
    "%s_%s_ms" % (prefix, q) for prefix, _cls in PERCENTILES for q in ("p50", "p90")
) + ("bytes_per_event",)
#: Per-layer metrics of the whole round (each stage adds its own).
ROUND_LAYERS = ("self.bench_s", "bench.layer_share", "bench.wall_untraced_s",
                "bench.wall_traced_s", "bench.trace_overhead_s")


def probe_seconds(iterations: int = int(CONFIG["probe"]["iterations"])) -> float:
    """Run the fixed reference probe once; return its CPU seconds.

    Integer arithmetic, a small heap and a dict: the interpreter work the
    simulator's event loop is made of, with no I/O and no allocation
    growth, so its time tracks only how fast this CPU runs Python now.
    """
    t0 = time.process_time()
    heap: List[Tuple[int, int]] = []
    counts: Dict[int, int] = {}
    x = 12345
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heappush(heap, (x & 1023, i))
        key = x & 255
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 64:
            heappop(heap)
    return time.process_time() - t0


class Sample:
    """One timed operation: its class, raw and normalized seconds."""

    __slots__ = ("cls", "raw", "timed", "norm", "wall", "traced")

    def __init__(self, cls: str, raw: float, timed: float, wall: bool, traced: bool):
        self.cls = cls
        #: Wall-clock seconds.
        self.raw = raw
        #: Seconds on the meter's clock; normalization scales these.
        self.timed = timed
        self.norm = timed
        self.wall = wall
        #: Taken while spans were on; kept out of end-to-end metrics.
        self.traced = traced


class Meter:
    """Times operations and normalizes them against interleaved probes.

    ``wall`` samples are the operations a cycle's wall time is made of;
    other samples (per-request latencies inside a concurrent cycle) are
    normalized with the same probes but do not count toward the budget.
    ``clock`` times :meth:`timed` blocks.
    """

    def __init__(self, spans: "Spans", nominal: float, budget: float,
                 clock: Callable[[], float] = time.process_time):
        self.spans = spans
        self.nominal = nominal
        self.budget = budget
        self.clock = clock
        self.samples: List[Sample] = []
        self.probes: List[float] = []
        self._pending: List[Sample] = []
        self._since = 0.0
        self._last = self._probe()

    def _probe(self) -> float:
        p = probe_seconds()
        self.probes.append(p)
        return p

    def add(self, cls: str, raw: float, wall: bool = True,
            timed: Optional[float] = None) -> Sample:
        """Record one operation; probe once a budget of work has passed."""
        s = Sample(cls, raw, raw if timed is None else timed, wall, self.spans.enabled)
        self.samples.append(s)
        self._pending.append(s)
        if wall:
            self._since += raw
            if self._since >= self.budget:
                self.settle()
        return s

    @contextmanager
    def timed(self, cls: str) -> Iterator[None]:
        """Time the block as one wall operation (a ``bench`` span when traced)."""
        with self.spans.span("bench", cls):
            t0, c0 = time.perf_counter(), self.clock()
            yield
            c1, t1 = self.clock(), time.perf_counter()
        self.add(cls, t1 - t0, timed=c1 - c0)

    def settle(self) -> None:
        """Probe now and normalize every operation since the last probe."""
        p = self._probe()
        factor = self.nominal / ((self._last + p) / 2.0)
        for s in self._pending:
            s.norm = s.timed * factor
        self._pending = []
        self._since = 0.0
        self._last = p


class Spans:
    """In-memory spans; a disabled recorder costs one attribute test."""

    def __init__(self) -> None:
        self.enabled = False
        #: Finished spans: ``[layer, name, duration, child_duration]``
        #: (``child_duration`` is ``None`` for overlapping spans).
        self.records: List[List[Any]] = []
        self._stack: List[List[Any]] = []

    def span(self, layer: str, name: str):
        """Context manager timing one call into ``layer``."""
        if not self.enabled:
            return nullcontext()
        return self._span(layer, name)

    @contextmanager
    def _span(self, layer: str, name: str) -> Iterator[None]:
        rec: List[Any] = [layer, name, 0.0, 0.0]
        self._stack.append(rec)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][3] += rec[2]
            self.records.append(rec)

    def add(self, layer: str, name: str, duration: float) -> None:
        """Record a span timed elsewhere, outside the nesting stack.

        For calls that overlap each other (concurrent requests), which
        cannot nest: they add to ``layer.name`` totals but not to any
        self time (``None`` child duration marks them).
        """
        if self.enabled:
            self.records.append([layer, name, duration, None])

    def drain(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per-``layer.name`` total seconds and per-layer self seconds."""
        totals: Dict[str, float] = {}
        selfs: Dict[str, float] = {}
        for layer, name, dur, child in self.records:
            key = "%s.%s" % (layer, name)
            totals[key] = totals.get(key, 0.0) + dur
            if child is not None:
                selfs[layer] = selfs.get(layer, 0.0) + max(0.0, dur - child)
        self.records = []
        return totals, selfs


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (the service load generator's convention)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(math.ceil(q * len(ordered))) - 1))
    return ordered[idx]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def process_peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Context:
    """Everything a stage needs: inputs, meter, spans, checks, scratch."""

    def __init__(self, seed: int, family: str, workdir: Path,
                 expected: Optional[Dict[str, Any]] = None):
        self.seed = seed
        #: Shipped input variant; references exist for each one.
        self.variant = seed % int(CONFIG["variants"])
        #: Input family (a workload's name, or ``tiny``); picks each
        #: stage's inputs.
        self.family = family
        self.workdir = workdir
        #: The family's references for this variant, keyed
        #: ``<stage>/<key>``; ``None`` records them instead
        #: (``perfbench/make_refs.py``).
        self.recording = expected is None
        self.expected: Dict[str, Any] = {} if expected is None else expected
        #: The stage now running; prefixes its reference keys.
        self.stage = ""
        self.spans = Spans()
        self.meter = Meter(
            self.spans,
            float(CONFIG["probe"]["nominal_s"]),
            float(CONFIG["probe"]["budget_s"]),
        )
        self.attempted = 0
        self.failed = 0
        #: Index of the round now running (``-1``: the warm-up round).
        self.cycle_index = 0

    def timed(self, cls: str):
        return self.meter.timed(cls)

    def span(self, layer: str, name: str):
        return self.spans.span(layer, name)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a wrong output is a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print("FAILED: %s" % what, file=sys.stderr)
        return ok

    def expect(self, key: str, got: Any, what: str,
               same: Callable[[Any, Any], bool] = lambda a, b: a == b) -> bool:
        """Check one output against its shipped reference (or record it)."""
        key = "%s/%s" % (self.stage, key)
        if self.recording:
            self.expected[key] = got
            return self.check(True, what)
        want = self.expected.get(key)
        return self.check(
            want is not None and same(got, want),
            "%s: got %r, reference %r" % (what, got, want),
        )


class Stage:
    """One stage of the pipeline; subclasses fill in the hooks."""

    name = ""
    #: Per-layer metrics this stage reports from traced rounds.
    per_layer: Tuple[str, ...] = ()
    #: Cycles of this stage in one round.
    cycles_per_round = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        #: Per traced cycle: exact counts the cycle produced.
        self.cycle_counts: List[Dict[str, float]] = []

    @staticmethod
    def clock() -> float:
        """The clock that times this stage's operations."""
        return time.process_time()

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release one set-up's state before the next repetition."""

    def cycle(self, traced: bool) -> None:
        raise NotImplementedError

    def finish(self, traced: bool) -> Dict[str, float]:
        """Final checks after the last round; returns extra layer metrics."""
        return {}

    def close(self) -> None:
        """Stop everything this stage started (always called)."""

    def derive(self, layers: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics computed from the others (traced runs)."""
        return {}


def stages() -> Tuple[type, ...]:
    """The pipeline's stages, in the order a round runs them."""
    from perfbench.wl_archive import Archive
    from perfbench.wl_figures import Figures
    from perfbench.wl_service import Service

    return (Figures, Archive, Service)


def per_layer_metrics() -> Tuple[str, ...]:
    """Every per-layer metric a traced run reports."""
    return ROUND_LAYERS + tuple(m for cls in stages() for m in cls.per_layer)


def settle_disk(path: Path) -> None:
    """Write back the dirty pages of the file system holding ``path``.

    Called untimed before each stage, so a stage's fsyncs do not wait on
    what an earlier stage wrote; the run's directories are deleted only
    at its end for the same reason.
    """
    try:
        syncfs = ctypes.CDLL(None, use_errno=True).syncfs
    except (OSError, AttributeError):
        return
    syncfs.argtypes = [ctypes.c_int]
    syncfs.restype = ctypes.c_int
    fd = os.open(str(path), os.O_RDONLY)
    try:
        syncfs(fd)
    finally:
        os.close(fd)


def _fmt(xs: List[float]) -> str:
    return "%.4f" % median(xs) if xs else "-"


def run_workload(family: str, seed: int, seconds: float, trace: bool,
                 refs: Optional[Dict[str, Any]] = None,
                 workroot: Optional[Path] = None,
                 log: Callable[[str], None] = print,
                 setup_reps: int = SETUP_REPS) -> Dict[str, Any]:
    """Set up, run timed rounds for ``seconds``, check, and summarize.

    ``family`` names the inputs (a workload's name, or ``tiny``).
    Returns ``{"correct", "attempted", "failed", "e2e", "layers"}`` where
    ``e2e`` and ``layers`` map metric names to values.  A traced run
    alternates untraced and traced rounds of the same inputs; end-to-end
    metrics come from the untraced ones only.
    """
    root = workroot or Path.cwd() / ".perfbench-work"
    workdir = root / ("%s-%d-%d" % (family, os.getpid(), int(time.time() * 1e3)))
    workdir.mkdir(parents=True, exist_ok=True)
    expected = None
    if refs is not None:
        expected = refs.get(family, {}).get(str(seed % int(CONFIG["variants"])), {})
    ctx = Context(seed, family, workdir, expected=expected)
    meter = ctx.meter
    pipeline = [cls(ctx) for cls in stages()]
    crashed = False
    setup_raw: List[float] = []
    setup_norm: List[float] = []
    #: Per stage, then per round: (traced, raw, normalized) of each cycle.
    walls: Dict[str, List[Tuple[bool, float, float]]] = {st.name: [] for st in pipeline}
    rounds: Dict[bool, List[Tuple[float, float]]] = {False: [], True: []}
    layer_rows: List[Dict[str, float]] = []
    extra: Dict[str, float] = {}

    def run_stage(st: Stage, call: Callable[[], None]) -> Tuple[float, float]:
        ctx.stage = st.name
        meter.clock = st.clock
        settle_disk(workdir)
        mark = len(meter.samples)
        call()
        meter.settle()
        done = [s for s in meter.samples[mark:] if s.wall]
        return sum(s.raw for s in done), sum(s.norm for s in done)

    try:
        for rep in range(setup_reps):
            if rep:
                for st in pipeline:
                    st.teardown()
            raw = norm = 0.0
            for st in pipeline:
                r, n = run_stage(st, st.setup)
                raw, norm = raw + r, norm + n
            setup_raw.append(raw)
            setup_norm.append(norm)
            log("setup %d: raw %.4f s  normalized %.4f s" % (rep, raw, norm))
        # First calls into the program (lazy imports, first-use caches)
        # land in an untimed warm-up round, not in the first timed one.
        ctx.cycle_index = -1
        mark = len(meter.samples)
        for st in pipeline:
            for _ in range(st.cycles_per_round):
                run_stage(st, lambda: st.cycle(False))
        del meter.samples[mark:]
        # The inputs the benchmark holds (bundles, bodies) live for the
        # whole run; keep the collector from re-scanning them at random
        # points inside timed operations.
        gc.collect()
        gc.freeze()
        t_end = time.perf_counter() + seconds
        index = 0
        while True:
            traced = trace and index % 2 == 1
            ctx.cycle_index = index
            ctx.spans.enabled = traced
            raw = norm = 0.0
            parts = []
            for st in pipeline:
                for _ in range(st.cycles_per_round):
                    r, n = run_stage(st, lambda: st.cycle(traced))
                    walls[st.name].append((traced, r, n))
                    raw, norm = raw + r, norm + n
                    parts.append("%s %.3f/%.3f" % (st.name, r, n))
            ctx.spans.enabled = False
            rounds[traced].append((raw, norm))
            log("round %d%s: raw %.4f s  normalized %.4f s  (%s)"
                % (index, " [traced]" if traced else "", raw, norm, ", ".join(parts)))
            if traced:
                totals, selfs = ctx.spans.drain()
                factor = norm / raw if raw > 0 else 1.0
                row = {k + "_s": v * factor for k, v in totals.items()}
                row.update({"self.%s_s" % k: v * factor for k, v in selfs.items()})
                layered = sum(v for k, v in selfs.items() if k != "bench")
                row["bench.layer_share"] = layered / raw if raw > 0 else 0.0
                layer_rows.append(row)
            index += 1
            enough = index >= (2 if trace else 1)
            if enough and time.perf_counter() >= t_end:
                break
        for st in pipeline:
            ctx.stage = st.name
            meter.clock = st.clock
            extra.update(st.finish(trace))
    except Exception:
        crashed = True
        traceback.print_exc()
    finally:
        for st in pipeline:
            st.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass
    if crashed:
        ctx.attempted += 1
        ctx.failed += 1

    by_class: Dict[str, List[Sample]] = {}
    for s in meter.samples:
        by_class.setdefault(s.cls, []).append(s)
    for name in sorted(by_class):
        ss = by_class[name]
        log("op %-14s n=%-5d p50 raw %.3f timed %.3f norm %.3f ms"
            " | p90 raw %.3f timed %.3f norm %.3f ms"
            % ((name, len(ss))
               + tuple(1e3 * quantile([getattr(s, k) for s in ss], q)
                       for q in (0.5, 0.9) for k in ("raw", "timed", "norm"))))
    log("probes: n=%d median %.4f s (nominal %.4f s)"
        % (len(meter.probes), median(meter.probes), meter.nominal))

    def stage_wall(name: str, traced: bool) -> float:
        return median([n for t, _r, n in walls[name] if t == traced])

    untraced = [n for _r, n in rounds[False]]
    e2e: Dict[str, float] = {}
    if not crashed:
        e2e = {"setup_s": median(setup_norm), "wall_s": median(untraced),
               "peak_rss_mb": process_peak_rss_mb(),
               "sweep_s": stage_wall("figures", False),
               "service_s": stage_wall("service", False)}
        for prefix, cls in PERCENTILES:
            xs = [s.norm for s in by_class.get(cls, []) if not s.traced]
            if xs:
                e2e[prefix + "_p50_ms"] = 1e3 * quantile(xs, 0.5)
                e2e[prefix + "_p90_ms"] = 1e3 * quantile(xs, 0.9)
        e2e["bytes_per_event"] = pipeline[1].bytes_per_event
    layers: Dict[str, float] = {}
    if trace and not crashed:
        for key in sorted({k for row in layer_rows for k in row}):
            layers[key] = median([row.get(key, 0.0) for row in layer_rows])
        for st in pipeline:
            counts = st.cycle_counts
            for key in sorted({k for row in counts for k in row}):
                layers[key] = median([row.get(key, 0.0) for row in counts])
        traced_walls = [n for _r, n in rounds[True]]
        layers["bench.wall_untraced_s"] = median(untraced)
        layers["bench.wall_traced_s"] = median(traced_walls)
        layers["bench.trace_overhead_s"] = median(traced_walls) - median(untraced)
        layers.update(extra)
        for st in pipeline:
            layers.update(st.derive(layers))
    log("wall_s raw %s normalized %s (untraced rounds: %d, traced: %d)"
        % (_fmt([r for r, _n in rounds[False]]), _fmt(untraced),
           len(rounds[False]), len(rounds[True])))
    for st in pipeline:
        log("stage %-8s raw %s normalized %s (untraced cycles)"
            % (st.name, _fmt([r for t, r, _n in walls[st.name] if not t]),
               _fmt([n for t, _r, n in walls[st.name] if not t])))
    produced = layers if trace else e2e
    declared = per_layer_metrics() if trace else END_TO_END
    if not crashed:
        for name in declared:
            ctx.check(name in produced and math.isfinite(produced[name]),
                      "metric %s not produced" % name)
    return {
        "correct": ctx.failed == 0,
        "attempted": max(1, ctx.attempted),
        "failed": ctx.failed,
        "e2e": e2e,
        "layers": layers,
        "ctx": ctx,
        "metrics": declared,
    }

"""``service`` stage: the TraceBank HTTP service under a closed loop of 2 clients.

Set-up simulates LANL-Trace runs of the input family's block size (their
per-rank trace files are the ingest bodies), starts ``repro service
serve`` in a subprocess on a fresh store, pinned to the benchmark's CPU
so the drift probe measures the CPU the server runs on, and fills a
reference tenant with a fixed number of runs.  A round runs three
cycles.  One cycle: two keep-alive clients, each writing to its
own new tenant, send their seed-planned requests one at a time (mostly
ingests of trace files re-stamped with a per-cycle pid, so every cycle
writes new segments, plus dedup re-ingests, and query, runs and dfg
reads of the reference tenant, whose fixed size bounds their cost); the
cycle ends when the server's ingest queue is empty.  Requests are timed
on the wall clock: the work runs in the server process.

Checks: no 5xx and no terminal 429; after the run the WAL is drained,
the service-wide verify is clean, and each checked tenant's query body
is byte-identical to ``run_query`` on that tenant's bank.
"""

from __future__ import annotations

import asyncio
import ctypes
import json
import random
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlencode

from perfbench.core import Stage, median

KiB = 1024
MiB = 1024 * KiB

SCALES: Dict[str, Dict[str, Any]] = {
    "small-io": {
        "fig_points": ((2, 256 * KiB), (3, 256 * KiB), (4, 256 * KiB)),
        "nprocs": 16,
        "bytes_per_rank": 16 * MiB,
        "new": 10,
        "dup": 2,
        "reads": ("query", "query", "dfg", "runs"),
        "ref_runs": 8,
        "checked_tenants": 12,
    },
    "large-io": {
        "fig_points": ((2, 1024 * KiB), (3, 1024 * KiB), (4, 1024 * KiB)),
        "nprocs": 16,
        "bytes_per_rank": 16 * MiB,
        "new": 10,
        "dup": 2,
        "reads": ("query", "query", "dfg", "runs"),
        "ref_runs": 8,
        "checked_tenants": 12,
    },
    "tiny": {
        "fig_points": ((4, 1024 * KiB),),
        "nprocs": 4,
        "bytes_per_rank": 1 * MiB,
        "new": 3,
        "dup": 1,
        "reads": ("query", "dfg", "runs"),
        "ref_runs": 2,
        "checked_tenants": 2,
    },
}

AGGS = ("ops", "bytes", "bandwidth", "events")
#: The query every checked tenant answers at the end of the run.
CHECK_QUERY = {"agg": "ops"}
#: The tenant every read goes to; set-up fills it.
REF_TENANT = "ref"


def _die_with_parent() -> None:
    """In the server's child process: have the kernel kill it if the
    benchmark dies without stopping it (Linux ``PR_SET_PDEATHSIG``)."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(1, int(signal.SIGKILL), 0, 0, 0)


class Client:
    """One keep-alive HTTP/1.1 connection (requests are sent one at a time)."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, target: str, body: bytes = b"",
                      headers: Optional[Dict[str, str]] = None
                      ) -> Tuple[int, Dict[str, str], bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        lines = ["%s %s HTTP/1.1" % (method, target), "Host: %s" % self.host,
                 "Content-Length: %d" % len(body)]
        lines.extend("%s: %s" % kv for kv in sorted((headers or {}).items()))
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await self.writer.drain()
        status = int((await self.reader.readuntil(b"\r\n")).split(b" ", 2)[1])
        got: Dict[str, str] = {}
        while True:
            line = await self.reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            got[name.strip().lower()] = value.strip()
        length = int(got.get("content-length", "0"))
        payload = await self.reader.readexactly(length) if length else b""
        if got.get("connection", "").lower() == "close":
            await self.close()
        return status, got, payload

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.reader = self.writer = None


class Service(Stage):
    name = "service"
    per_layer = (
        "service.server_ingest_ms", "service.server_query_ms", "service.server_dfg_ms",
        "service.transport_ms", "service.wal_ms", "service.queue_wait_ms",
        "service.commit_ms", "service.bank_ms", "service.commit_runs",
        "service.new_segments", "service.deduped_segments", "service.dedup_ratio",
        "service.retries_429", "service.queue_depth_mean", "service.bytes_per_event",
        "service.server_rss_mb", "self.service_s",
    )
    #: About one second of service load per round.
    cycles_per_round = 3

    def __init__(self, ctx):
        super().__init__(ctx)
        #: Service cycles run so far (names tenants, seeds plans).
        self.cycles = 0
        self.proc: Optional[subprocess.Popen] = None
        self.tenants: List[str] = []
        self.retries_429 = 0
        #: Per traced ingest: its trace id and client latency (seconds).
        self.traced_ingests: List[Tuple[str, float]] = []
        #: Server span-chain times of traced ingests, by stage (ms).
        self.chains: Dict[str, List[float]] = {}

    @staticmethod
    def clock() -> float:
        """Requests are timed on the wall clock: the server does the work."""
        return time.perf_counter()

    # -- server lifecycle ------------------------------------------------------

    def setup(self) -> None:
        from repro.harness.experiment import run_traced, sweep_args_for_block_size
        from repro.harness.figures import FIGURE_PATTERNS, paper_testbed
        from repro.harness.parallel import FRAMEWORK_FACTORIES, WORKLOADS

        ctx = self.ctx
        p = SCALES[ctx.family]
        self.p = p
        self.pool = []
        for fig, bs in p["fig_points"]:
            with ctx.timed("setup"):
                args = sweep_args_for_block_size(
                    {"pattern": FIGURE_PATTERNS[fig], "path": "/pfs/mpi_io_test.out"},
                    bs, p["bytes_per_rank"],
                )
                _out, traced = run_traced(
                    lambda: FRAMEWORK_FACTORIES["lanl-trace"]({}),
                    WORKLOADS["mpi_io_test"], args,
                    paper_testbed(ctx.variant, p["nprocs"]), p["nprocs"], ctx.variant,
                )
            self.pool.extend(traced.bundle.files[r] for r in sorted(traced.bundle.files))
        self.store = ctx.workdir / ("store-%d" % len(list(ctx.workdir.glob("store-*"))))
        with ctx.timed("setup"):
            self._start()
            # One run per rank, so a rank filter matches a fixed number.
            rng = random.Random(ctx.variant)
            refs = [rng.choice([tf for tf in self.pool if tf.rank == r])
                    for r in range(p["ref_runs"])]
            self.ref_ranks = list(range(p["ref_runs"]))
            asyncio.run(self._fill_reference(refs))

    def _start(self) -> None:
        cmd = [sys.executable, "-m", "repro", "service", "serve",
               "--store", str(self.store), "--port", "0", "--jobs", "1"]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            preexec_fn=_die_with_parent,
        )
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError("service did not start: %r" % line)
        hostport = line.rsplit("http://", 1)[1].strip()
        host, _, port = hostport.rpartition(":")
        self.host, self.port = host, int(port)
        status, _h, _b = asyncio.run(self._get("/healthz"))
        if status != 200:
            raise RuntimeError("service /healthz answered %d" % status)

    def teardown(self) -> None:
        self._stop()

    def _stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=20)
        if proc.stdout is not None:
            proc.stdout.close()

    def close(self) -> None:
        self._stop()

    async def _fill_reference(self, files: List[Any]) -> None:
        from repro.trace.binary_format import encode_trace_file

        client = Client(self.host, self.port)
        try:
            for tf in files:
                status, _h, _b = await client.request(
                    "POST", "/v1/t/%s/ingest?rank=%d" % (REF_TENANT, tf.rank),
                    encode_trace_file(tf))
                if status != 202:
                    raise RuntimeError("reference ingest answered %d" % status)
        finally:
            await client.close()
        await self._drain()

    async def _drain(self) -> None:
        """Wait until the server's ingest queue is empty."""
        client = Client(self.host, self.port)
        try:
            while True:
                status, _h, body = await client.request("GET", "/healthz")
                if status != 200 or json.loads(body)["queue_depth"] == 0:
                    break
                await asyncio.sleep(0.002)
        finally:
            await client.close()

    async def _get(self, target: str) -> Tuple[int, Dict[str, str], bytes]:
        client = Client(self.host, self.port)
        try:
            return await client.request("GET", target)
        finally:
            await client.close()

    # -- the load ----------------------------------------------------------------

    def _plan(self, cycle: int, j: int) -> List[Tuple[str, Any]]:
        """One client's requests for one cycle (a pure function of the seed)."""
        from repro.trace.binary_format import encode_trace_file
        from repro.trace.records import TraceFile

        rng = random.Random("%d/%d/%d" % (self.ctx.variant, cycle, j))
        p = self.p
        ops: List[Tuple[str, Any]] = []
        bodies = []
        for k, tf in enumerate(rng.sample(self.pool, p["new"])):
            stamped = TraceFile(tf.events, hostname=tf.hostname,
                                pid=100000 + 1000 * cycle + 100 * j + k,
                                rank=tf.rank, framework=tf.framework)
            body = ("ingest", (encode_trace_file(stamped), tf.rank))
            bodies.append(body)
            ops.append(body)
        for _ in range(p["dup"]):
            src = rng.randrange(len(bodies))
            ops.insert(rng.randrange(src + 1, len(ops) + 1), bodies[src])
        for i, kind in enumerate(p["reads"]):
            params: Dict[str, str] = {}
            if kind != "runs":
                params["ranks"] = ",".join(map(str, sorted(rng.sample(self.ref_ranks, 2))))
            if kind == "query":
                params["agg"] = AGGS[(cycle + j + i) % len(AGGS)]
            ops.insert(rng.randrange(2, len(ops) + 1), (kind, params))
        return ops

    async def _client(self, cycle: int, j: int, tenant: str,
                      ops: List[Tuple[str, Any]], traced: bool) -> None:
        from repro.obs.reqtrace import make_context

        ctx = self.ctx
        client = Client(self.host, self.port)
        try:
            for idx, (kind, arg) in enumerate(ops):
                if kind == "ingest":
                    body, rank = arg
                    method, target = "POST", "/v1/t/%s/ingest?rank=%d" % (tenant, rank)
                else:
                    body, method = b"", "GET"
                    target = "/v1/t/%s/%s" % (REF_TENANT, kind)
                    if arg:
                        target += "?" + urlencode(arg)
                trace = make_context("perfbench", ctx.seed, cycle, j, idx)
                retries = 0
                while True:
                    t0 = time.perf_counter()
                    status, headers, _payload = await client.request(
                        method, target, body, {"Traceparent": trace.header()})
                    latency = time.perf_counter() - t0
                    ctx.spans.add("service", kind, latency)
                    if status == 429 and retries < 20:
                        retries += 1
                        self.retries_429 += 1
                        await asyncio.sleep(float(headers.get("retry-after", "0.05")))
                        continue
                    break
                ctx.meter.add("http_" + kind, latency, wall=False)
                want = 202 if kind == "ingest" else 200
                ctx.check(status == want, "service %s %s -> %d" % (method, target, status))
                if traced and kind == "ingest":
                    self.traced_ingests.append((trace.trace_id, latency))
        finally:
            await client.close()

    async def _cycle(self, cycle: int, plans, traced: bool) -> None:
        await asyncio.gather(*(self._client(cycle, j, tenant, ops, traced)
                               for j, (tenant, ops) in enumerate(plans)))
        await self._drain()

    def cycle(self, traced: bool) -> None:
        ctx = self.ctx
        c = self.cycles
        self.cycles += 1
        plans = []
        for j in range(2):
            tenant = "c%04d-%s" % (c, "ab"[j])
            self.tenants.append(tenant)
            plans.append((tenant, self._plan(c, j)))
        with ctx.timed("service"), ctx.span("service", "cycle"):
            asyncio.run(self._cycle(c, plans, traced))
        if traced:
            # Right away, while the server's trace ring still holds them.
            self._span_chains()

    # -- the end of the run ------------------------------------------------------

    def finish(self, traced: bool) -> Dict[str, float]:
        from repro.obs.metrics import canonical_json, quantile_from_snapshot
        from repro.service.api import query_from_params
        from repro.service.server import parse_qs
        from repro.service.tenants import TenantRegistry
        from repro.store.query import run_query

        ctx = self.ctx
        _s, _h, body = asyncio.run(self._get("/healthz"))
        wal = list((self.store / "wal").glob("*.wal"))
        ctx.check(json.loads(body)["queue_depth"] == 0 and not wal,
                  "service WAL not drained: %d entries left" % len(wal))
        registry = TenantRegistry(self.store, create=False)
        report = registry.verify()
        orphans = report["namespaces"]["_root"]["orphan_segments"]
        ctx.check(report["ok"] and not orphans, "service verify not clean")
        checked = [REF_TENANT] + self.tenants[-self.p["checked_tenants"]:]
        target_qs = urlencode(CHECK_QUERY)
        for tenant in checked:
            _s, _h, body = asyncio.run(self._get("/v1/t/%s/query?%s" % (tenant, target_qs)))
            local = run_query(registry.bank(tenant, create=False),
                              query_from_params(parse_qs(target_qs)))
            ctx.check(body == (canonical_json(local) + "\n").encode("utf-8"),
                      "service tenant %s query differs from run_query" % tenant)
        if not traced:
            return {}
        _s, _h, sbody = asyncio.run(self._get("/v1/stats"))
        stats = json.loads(sbody)
        manifests = sum(p.stat().st_size for p in self.store.glob("tenants/*/manifests/*.json"))
        _s, _h, mbody = asyncio.run(self._get("/v1/metrics"))
        snap = json.loads(mbody)
        hist = snap["histograms"]
        out: Dict[str, float] = {
            "service.server_rss_mb": self._read_server_rss(),
            "service.bytes_per_event": (stats["stored_bytes"] + manifests) / stats["events"],
        }
        for route in ("ingest", "query", "dfg"):
            h = hist.get("service.route_seconds{route=%s}" % route)
            if h:
                out["service.server_%s_ms" % route] = 1e3 * quantile_from_snapshot(h, 0.5)
        counters = snap["counters"]
        out["service.commit_runs"] = float(counters.get("service.commit.runs", 0))
        out["service.new_segments"] = float(counters.get("service.commit.new_segments", 0))
        out["service.deduped_segments"] = float(
            counters.get("service.commit.deduped_segments", 0))
        out["service.dedup_ratio"] = float(stats["dedup_ratio"])
        out["service.retries_429"] = float(self.retries_429)
        samples = snap["timelines"].get("service.queue_depth", {}).get("samples", [])
        out["service.queue_depth_mean"] = (
            sum(v for _t, v in samples) / len(samples) if samples else 0.0)
        out.update({"service.%s_ms" % k: median(v) for k, v in self.chains.items()})
        return out

    def _span_chains(self) -> None:
        """Fetch the server's span chain of each traced ingest of the cycle.

        A trace the server no longer answers for is a failed operation:
        the chain times would otherwise come from a biased subset.
        """
        names = {"wal.decode": "wal", "wal.append": "wal",
                 "wal.queue.wait": "queue_wait", "commit": "commit",
                 "bank.ingest": "bank"}
        traced, self.traced_ingests = self.traced_ingests, []
        for trace_id, latency in traced:
            status, _h, body = asyncio.run(self._get("/v1/traces/%s" % trace_id))
            if not self.ctx.check(status == 200, "service trace %s -> %d" % (trace_id, status)):
                continue
            report = json.loads(body)
            row = {"transport": 1e3 * latency - report["wall_us"] / 1e3}
            for s in report["spans"]:
                key = names.get(s["name"])
                if key is not None:
                    row[key] = row.get(key, 0.0) + s["dur_us"] / 1e3
            for key, value in row.items():
                self.chains.setdefault(key, []).append(value)

    def _read_server_rss(self) -> float:
        try:
            with open("/proc/%d/status" % self.proc.pid, encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except (OSError, AttributeError):
            pass
        return 0.0

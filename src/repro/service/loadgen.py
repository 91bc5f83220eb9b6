"""Deterministic multi-tenant load generator for the TraceBank service.

The load plan is a pure function of its parameters: a seeded RNG deals
each simulated client a tenant, a repeatable sequence of ingest bodies
(drawn from a small pool of distinct trace payloads so dedup is
exercised on purpose) and interleaved query/runs/dfg reads.  Two runs of
``repro service loadgen --seed 7 --clients 100`` issue byte-identical
request sequences — latency numbers vary with the machine, but the
*work* never does, which is what makes the BENCH comparable across
commits.

Each client is one asyncio task holding one keep-alive connection, so
``--clients 1000`` really is a thousand concurrent sockets hammering the
server.  The harness records every response: latency quantiles (p50/p99),
request throughput, the status mix (429s are *expected* under
backpressure and retried after the server's own ``Retry-After``), and —
from ``/v1/stats`` at the end — the service-wide dedup ratio.  Results
land in canonical JSON (``BENCH_service.json`` by convention).
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.obs.metrics import canonical_json
from repro.obs.reqtrace import make_context
from repro.trace.binary_format import encode_trace_file
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile

__all__ = ["LoadPlan", "LoadResult", "build_plan", "run_loadgen", "make_payload"]

_OPS = ("SYS_write", "SYS_read", "SYS_open", "SYS_close")


def make_payload(payload_id: int, events: int = 64) -> bytes:
    """One deterministic binary trace body, unique per ``payload_id``."""
    rng = random.Random(0xBEEF ^ payload_id)
    evs = []
    ts = 0.0
    for i in range(events):
        ts += rng.uniform(0.0005, 0.005)
        nbytes = rng.choice((4096, 65536, 1 << 20))
        evs.append(
            TraceEvent(
                timestamp=ts,
                duration=rng.uniform(0.0001, 0.002),
                layer=EventLayer.SYSCALL,
                name=_OPS[i % len(_OPS)],
                args=(3, nbytes),
                result=nbytes,
                pid=4000 + payload_id,
                rank=payload_id % 8,
                hostname="load%03d" % (payload_id % 32),
                user="loadgen",
                path="/pfs/load/%d/data.bin" % (payload_id % 16),
                fd=3,
                nbytes=nbytes,
                offset=i * nbytes,
            )
        )
    tf = TraceFile(
        evs,
        hostname="load%03d" % (payload_id % 32),
        pid=4000 + payload_id,
        rank=payload_id % 8,
        framework="loadgen",
    )
    return encode_trace_file(tf)


@dataclass
class LoadPlan:
    """The fully materialised request schedule for every client."""

    seed: int
    tenants: List[str]
    payloads: List[bytes]
    #: ``ops[client]`` is that client's request list; each op is a tuple
    #: ``("ingest", tenant, payload_idx)`` or ``("query"|"runs"|"dfg", tenant)``.
    ops: List[List[Tuple[str, ...]]] = field(default_factory=list)

    @property
    def total_requests(self) -> int:
        return sum(len(client_ops) for client_ops in self.ops)


def build_plan(
    clients: int = 100,
    requests_per_client: int = 10,
    tenants: int = 4,
    payload_pool: int = 16,
    ingest_fraction: float = 0.5,
    seed: int = 7,
    payload_events: int = 64,
) -> LoadPlan:
    """Deal the deterministic request schedule (pure; no I/O)."""
    if clients < 1 or requests_per_client < 1 or tenants < 1 or payload_pool < 1:
        raise ServiceError("loadgen parameters must all be >= 1")
    rng = random.Random(seed)
    tenant_names = ["tenant%02d" % i for i in range(tenants)]
    payloads = [make_payload(i, events=payload_events) for i in range(payload_pool)]
    reads = ("query", "query", "runs", "dfg")  # query-heavy read mix
    ops: List[List[Tuple[str, ...]]] = []
    for client in range(clients):
        tenant = tenant_names[client % tenants]
        # Each client opens with an ingest so its namespace exists before
        # any of its reads — accepted uploads create the tenant, so the
        # plan never reads a namespace it has not itself established.
        client_ops: List[Tuple[str, ...]] = [
            ("ingest", tenant, str(rng.randrange(payload_pool)))
        ]
        for _ in range(requests_per_client - 1):
            if rng.random() < ingest_fraction:
                client_ops.append(("ingest", tenant, str(rng.randrange(payload_pool))))
            else:
                client_ops.append((rng.choice(reads), tenant))
        ops.append(client_ops)
    return LoadPlan(seed=seed, tenants=tenant_names, payloads=payloads, ops=ops)


def _rank_quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of a raw latency list (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


@dataclass
class LoadResult:
    """Aggregated outcome of one loadgen run (see :func:`report`)."""

    clients: int
    requests: int
    errors: int
    retries_429: int
    wall_seconds: float
    latencies: List[float]
    status_counts: Dict[int, int]
    dedup_ratio: Optional[float] = None
    stats: Optional[Dict[str, Any]] = None
    #: Per-route raw observations: route -> {"latencies", "status_counts"}.
    routes: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (nearest-rank) of the observed latencies."""
        return _rank_quantile(self.latencies, q)

    def report(self) -> Dict[str, Any]:
        """The canonical BENCH_service report dict (schema'd, rounded)."""
        wall = max(self.wall_seconds, 1e-9)
        per_route: Dict[str, Any] = {}
        for route in sorted(self.routes):
            obs = self.routes[route]
            lats = obs.get("latencies") or []
            per_route[route] = {
                "requests": len(lats),
                "latency_p50_ms": round(_rank_quantile(lats, 0.50) * 1e3, 3),
                "latency_p99_ms": round(_rank_quantile(lats, 0.99) * 1e3, 3),
                "status_counts": {
                    str(k): v
                    for k, v in sorted((obs.get("status_counts") or {}).items())
                },
            }
        return {
            "schema": "repro/service/bench/v1",
            "clients": self.clients,
            "requests": self.requests,
            "errors": self.errors,
            "retries_429": self.retries_429,
            "wall_seconds": round(self.wall_seconds, 6),
            "req_per_sec": round(self.requests / wall, 3),
            "latency_p50_ms": round(self.quantile(0.50) * 1e3, 3),
            "latency_p99_ms": round(self.quantile(0.99) * 1e3, 3),
            "status_counts": {
                str(k): v for k, v in sorted(self.status_counts.items())
            },
            "routes": per_route,
            "dedup_ratio": (
                None if self.dedup_ratio is None else round(self.dedup_ratio, 4)
            ),
        }


class _Client:
    """One simulated client: one keep-alive connection, one op list."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self.writer is not None:
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.reader = self.writer = None

    async def request(
        self,
        method: str,
        target: str,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        for attempt in (0, 1):  # one transparent reconnect on a stale socket
            if self.writer is None:
                await self._connect()
            try:
                return await asyncio.wait_for(
                    self._roundtrip(method, target, body, headers or {}),
                    timeout=self.timeout,
                )
            except (ConnectionError, asyncio.IncompleteReadError):
                await self.close()
                if attempt:
                    raise
        raise ConnectionError("unreachable")  # pragma: no cover

    async def _roundtrip(
        self, method: str, target: str, body: bytes, headers: Dict[str, str]
    ) -> Tuple[int, Dict[str, str], bytes]:
        assert self.reader is not None and self.writer is not None
        lines = [
            "%s %s HTTP/1.1" % (method, target),
            "Host: %s" % self.host,
            "Content-Length: %d" % len(body),
        ]
        lines.extend("%s: %s" % (k, v) for k, v in sorted(headers.items()))
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readuntil(b"\r\n")
        status = int(status_line.split(b" ", 2)[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self.reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").strip().partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        payload = await self.reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, payload


_QUERY_TARGET = "/v1/t/%s/query?agg=ops&limit=32"
_DFG_TARGET = "/v1/t/%s/dfg?limit=32"


async def _run_client(
    host: str,
    port: int,
    plan: LoadPlan,
    client_idx: int,
    sink: Dict[str, Any],
    max_429_retries: int = 50,
) -> None:
    client = _Client(host, port)
    try:
        for op_idx, op in enumerate(plan.ops[client_idx]):
            kind, tenant = op[0], op[1]
            if kind == "ingest":
                body = plan.payloads[int(op[2])]
                method, target = "POST", "/v1/t/%s/ingest?rank=0" % tenant
            elif kind == "query":
                body, method, target = b"", "GET", _QUERY_TARGET % tenant
            elif kind == "dfg":
                body, method, target = b"", "GET", _DFG_TARGET % tenant
            else:
                body, method, target = b"", "GET", "/v1/t/%s/runs" % tenant
            # Deterministic trace context per (plan, client, op): the
            # server adopts these ids, so a bench run's slowest server
            # trace joins back to exactly one planned client request.
            ctx = make_context("repro-loadgen", plan.seed, client_idx, op_idx)
            route_obs = sink["routes"].setdefault(
                kind, {"latencies": [], "status_counts": {}}
            )
            retries = 0
            while True:
                t0 = time.perf_counter()
                try:
                    status, headers, _payload = await client.request(
                        method, target, body,
                        headers={"Traceparent": ctx.header()},
                    )
                except (ConnectionError, OSError, asyncio.IncompleteReadError,
                        asyncio.TimeoutError):
                    sink["errors"] += 1
                    await client.close()
                    break
                latency = time.perf_counter() - t0
                sink["latencies"].append(latency)
                sink["status_counts"][status] = (
                    sink["status_counts"].get(status, 0) + 1
                )
                route_obs["latencies"].append(latency)
                route_obs["status_counts"][status] = (
                    route_obs["status_counts"].get(status, 0) + 1
                )
                if status == 429 and retries < max_429_retries:
                    # Exponential backoff from the server's own hint —
                    # deterministic, and it keeps a saturated queue from
                    # drowning in retry traffic.
                    base = float(headers.get("retry-after", "0.25"))
                    sink["retries_429"] += 1
                    await asyncio.sleep(min(5.0, base * (2 ** min(retries, 6))))
                    retries += 1
                    continue
                if status >= 500:
                    sink["errors"] += 1
                break
    finally:
        await client.close()


async def _run_loadgen_async(
    host: str, port: int, plan: LoadPlan
) -> LoadResult:
    sink: Dict[str, Any] = {
        "latencies": [],
        "status_counts": {},
        "errors": 0,
        "retries_429": 0,
        "routes": {},
    }
    t0 = time.perf_counter()
    await asyncio.gather(
        *(
            _run_client(host, port, plan, i, sink)
            for i in range(len(plan.ops))
        )
    )
    wall = time.perf_counter() - t0
    dedup_ratio: Optional[float] = None
    stats: Optional[Dict[str, Any]] = None
    probe = _Client(host, port)
    try:
        status, _headers, payload = await probe.request("GET", "/v1/stats")
        if status == 200:
            stats = json.loads(payload.decode("utf-8"))
            dedup_ratio = float(stats.get("dedup_ratio", 1.0))
    except (ConnectionError, OSError, asyncio.IncompleteReadError,
            asyncio.TimeoutError, ValueError):
        pass
    finally:
        await probe.close()
    return LoadResult(
        clients=len(plan.ops),
        requests=len(sink["latencies"]),
        errors=sink["errors"],
        retries_429=sink["retries_429"],
        wall_seconds=wall,
        latencies=sink["latencies"],
        status_counts=sink["status_counts"],
        dedup_ratio=dedup_ratio,
        stats=stats,
        routes=sink["routes"],
    )


def run_loadgen(host: str, port: int, plan: LoadPlan) -> LoadResult:
    """Blocking entry point: run the whole plan against a live server."""
    return asyncio.run(_run_loadgen_async(host, port, plan))


def write_bench(result: LoadResult, path: str) -> Dict[str, Any]:
    """Write the canonical BENCH_service.json and return the report."""
    report = result.report()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(report) + "\n")
    return report

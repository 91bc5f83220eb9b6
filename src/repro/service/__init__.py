"""TraceBank as a service: concurrent multi-tenant ingest/query HTTP API.

The archive layers below this package are strictly single-writer-ish
library code; this package turns them into a long-running service:

* :mod:`repro.service.tenants` — per-tenant namespaces over one shared
  content-addressed segment pool (cross-tenant dedup for free, isolation
  by construction);
* :mod:`repro.service.ingestq` — the bounded write-ahead ingest queue:
  durability before acknowledgement, explicit 429 backpressure;
* :mod:`repro.service.api` — transport-independent routing/handlers
  (testable without sockets);
* :mod:`repro.service.server` — the stdlib-asyncio HTTP/1.1 front end;
* :mod:`repro.service.loadgen` — the deterministic load-test harness
  behind ``BENCH_service.json``.

Every request is traced end to end (client → http → wal → commit →
bank) via :mod:`repro.obs.reqtrace`: the server adopts the client's
``traceparent`` ids, keeps the N slowest traces per route inspectable
over ``GET /v1/traces/slowest``, exposes Prometheus text at
``GET /v1/metrics?format=prom``, and can write a canonical JSONL access
log (one line per request).

See DESIGN.md §16 for the architecture and the backpressure contract,
and §18 for the observability surface.
"""

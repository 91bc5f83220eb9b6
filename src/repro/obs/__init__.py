"""Simulator-wide telemetry: metrics, tracepoints, spans, trace export.

The paper's subject is making I/O behaviour observable; this package
gives the *simulator itself* the same treatment, so performance and
robustness work has data instead of guesses:

* :mod:`repro.obs.metrics` — counters, gauges, log2-bucketed histograms
  and step timelines, all stamped with **simulated** time;
* :mod:`repro.obs.tracepoints` — the static tracepoint catalog threaded
  through the hot layers (DES dispatch, network transfers, disk/PFS/cache
  operations, MPI collectives, syscall dispatch), compiled to no-ops when
  telemetry is off;
* :mod:`repro.obs.spans` — a span-based sim-time profiler nesting spans
  per node/rank;
* :mod:`repro.obs.perfetto` — Chrome trace-event JSON export (loadable in
  Perfetto / ``chrome://tracing``) plus a schema validator;
* :mod:`repro.obs.report` — the ``repro observe`` summary report over an
  exported payload;
* :mod:`repro.obs.compare` — cross-run telemetry diffing (``repro obs
  diff``): counter deltas, histogram divergence, span-tree alignment;
* :mod:`repro.obs.critpath` — critical-path attribution: per-layer self
  time, the slowest-rank chain, collapsed-stack flamegraph export;
* :mod:`repro.obs.slice` — causal slicing (``repro obs slice``): the
  cross-layer chain, per-layer window attribution, fault candidates and
  ranked suspects explaining one run's latency around an anchor;
* :mod:`repro.obs.diagnose` — archive-scale anomaly diagnosis
  (``repro obs diagnose``): fingerprint every TraceBank run, cluster by
  DFG-shape distance, flag outliers with median/MAD scoring, auto-slice
  each one;
* :mod:`repro.obs.reqtrace` — end-to-end *wall-clock* request tracing
  for the TraceBank service: traceparent-style context propagation,
  the bounded span ring with slowest-per-route exemplar retention, and
  Perfetto/flamegraph export behind ``repro obs reqtrace``/``obs top``;
* :mod:`repro.obs.prom` — Prometheus text exposition (and a strict
  parser) over a metrics snapshot, serving ``GET /v1/metrics?format=
  prom``.

Telemetry is deterministic: it is stamped exclusively with simulated time
and recorded in dispatch order, so the same seed produces byte-identical
metric snapshots and span traces whether a sweep ran serially, fanned out
over worker processes, or replayed from a warm run cache.

Enable it around any simulation::

    from repro.obs import tracepoints

    with tracepoints.session() as col:
        figure_series(2, ...)          # any simulated work
        payload = col.export(end_time=...)
"""

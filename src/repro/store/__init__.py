"""TraceBank: a sharded, content-addressed trace archive with queries.

The simulator's experiments produce many trace bundles (sweeps, chaos
matrices, fault studies); this package archives them durably and makes
them queryable without re-running anything:

* :mod:`repro.store.segments` — per-``(run, rank)`` content-addressed
  storage units encoded with the existing binary trace codec, plus the
  manifest-resident summaries predicate pushdown consults;
* :mod:`repro.store.manifest` — versioned per-run index records with
  content-derived run ids (idempotent ingest, free dedup); the manifest
  files are the archive's only index, and a run id is looked up by its
  file name;
* :mod:`repro.store.bank` — :class:`TraceBank` itself: ingest, read,
  ``verify``, ``gc``, stats;
* :mod:`repro.store.query` — the parallel query engine (filter +
  aggregate, fanned out via :func:`repro.fanout.parallel_map`,
  byte-identical across job counts);
* :mod:`repro.store.dfg` — directly-follows graphs over archived runs.

Entry points: the ``repro store`` CLI group, ``--store`` on sweep/chaos
commands (auto-ingest), and the store-backed paths in
:mod:`repro.analysis.summary` and ``repro observe``.
"""

from repro.store.bank import (
    DEFAULT_STORE_DIR,
    STORE_SCHEMA,
    IngestResult,
    TraceBank,
    render_store_summary,
)
from repro.store.dfg import build_dfg, render_dfg_dot, render_dfg_text
from repro.store.manifest import MANIFEST_SCHEMA, RunManifest, compute_run_id
from repro.store.query import (
    AGGREGATES,
    Query,
    run_query,
    scan_events,
    telemetry_view,
)
from repro.store.segments import SegmentMeta, content_address

__all__ = [
    "AGGREGATES",
    "DEFAULT_STORE_DIR",
    "MANIFEST_SCHEMA",
    "STORE_SCHEMA",
    "IngestResult",
    "Query",
    "RunManifest",
    "SegmentMeta",
    "TraceBank",
    "build_dfg",
    "compute_run_id",
    "content_address",
    "render_dfg_dot",
    "render_dfg_text",
    "render_store_summary",
    "run_query",
    "scan_events",
    "telemetry_view",
]

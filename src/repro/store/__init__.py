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

"""Experiment harness: testbed assembly, overhead protocol, figure series.

* :mod:`repro.harness.testbed` — builds the standard simulated machine
  (cluster + parallel FS at ``/pfs`` + NFS home at ``/home`` + local
  scratch at ``/tmp``), mirroring the paper's testbed;
* :mod:`repro.harness.experiment` — :func:`run_once`, the only code that
  runs a job (testbed, optional fault plane, optional tracer, drive,
  finalize), and the traced-vs-untraced measurement protocol on top;
* :mod:`repro.harness.parallel` — pickle-safe run specs, the one executor
  loop over a point's untraced and traced legs, and the process-pool
  sweep runner;
* :mod:`repro.harness.runcache` — content-addressed on-disk cache of
  sweep-point results (determinism makes every point replayable);
* :mod:`repro.harness.figures` — series generators for the paper's
  Figures 2-4;
* :mod:`repro.harness.report` — paper-style text rendering of results.
"""

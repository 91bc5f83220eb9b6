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

from repro.harness.testbed import Testbed, TestbedConfig, build_testbed
from repro.harness.experiment import (
    OverheadMeasurement,
    RunOutcome,
    measure_overhead,
    run_once,
    run_traced,
    run_untraced,
)
from repro.harness.parallel import (
    FrameworkSpec,
    PointResult,
    RunSpec,
    SweepReport,
    execute_spec,
    run_sweep,
)
from repro.harness.runcache import RunCache

__all__ = [
    "Testbed",
    "TestbedConfig",
    "build_testbed",
    "OverheadMeasurement",
    "RunOutcome",
    "measure_overhead",
    "run_once",
    "run_traced",
    "run_untraced",
    "FrameworkSpec",
    "PointResult",
    "RunSpec",
    "SweepReport",
    "execute_spec",
    "run_sweep",
    "RunCache",
]

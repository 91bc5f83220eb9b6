"""The workload zoo: modern I/O scenarios + trace-driven replay.

The paper measures every framework against one synthetic application
(``mpi_io_test``).  The zoo widens the bench to the I/O shapes that
dominate today's clusters, and closes the loop the paper only gestures
at — replaying a *real* trace on a simulated cluster:

* :mod:`repro.zoo.registry` — declarative scenario registry; each
  :class:`~repro.zoo.registry.ZooScenario` lowers to a plain harness
  :class:`~repro.harness.parallel.RunSpec`, so scenarios compose with
  the process-pool sweep, run cache, fault matrices, telemetry,
  ``--store`` archiving and ``obs diagnose`` for free;
* :mod:`repro.zoo.matrix` — run all scenarios, check their declared I/O
  signatures against the archived traces, emit the byte-deterministic
  ``repro/zoo/v1`` report;
* :mod:`repro.zoo.replaypipe` — real strace capture, library trace file,
  or archived TraceBank run id → pseudo-application → simulated replay →
  fidelity report (op mix, bytes, timing; exact-or-explain).
"""

from repro.zoo.registry import SCENARIOS, ZOO_NPROCS, ZooScenario, get, names, register, zoo_testbed
from repro.zoo.matrix import (
    ZOO_SCHEMA,
    build_zoo_specs,
    check_signature,
    render_zoo_report,
    run_zoo_matrix,
)
from repro.zoo.replaypipe import (
    choose_layer,
    load_source,
    render_fidelity_report,
    replay_pipeline,
    source_elapsed,
)

__all__ = [
    "SCENARIOS",
    "ZOO_NPROCS",
    "ZOO_SCHEMA",
    "ZooScenario",
    "build_zoo_specs",
    "check_signature",
    "choose_layer",
    "get",
    "load_source",
    "names",
    "register",
    "render_fidelity_report",
    "render_zoo_report",
    "replay_pipeline",
    "run_zoo_matrix",
    "source_elapsed",
    "zoo_testbed",
]

"""Replayable traces: pseudo-application generation, replay, fidelity.

The taxonomy's "Replayable trace generation" feature (§3.1): "The I/O
Tracing Framework may optionally generate a pseudo-application from
collected trace data with the aim of reproducing the I/O signature of the
original application."  //TRACE is the framework built around this
(§2.3); the paper also notes LANL-Trace's raw traces make "a replayer
being built that reads and replays the raw trace files" trivial to
imagine — both paths are implemented here:

* :mod:`repro.replay.pseudoapp` — turn any trace bundle (from any
  framework) into per-rank replay scripts;
* :mod:`repro.replay.replayer` — execute a pseudo-application on a fresh
  simulated testbed;
* :mod:`repro.replay.fidelity` — the verification methods §3.1 describes:
  end-to-end run-time comparison and trace-vs-trace comparison.

The package itself exports the pipeline's three steps:
:func:`build_pseudoapp`, :func:`replay` and :func:`fidelity_report`.
"""

from repro.replay.fidelity import fidelity_report
from repro.replay.pseudoapp import build_pseudoapp
from repro.replay.replayer import replay

__all__ = ["build_pseudoapp", "fidelity_report", "replay"]

"""The I/O Tracing Frameworks surveyed by the paper (§2, §4).

* :mod:`repro.frameworks.lanltrace` — LANL-Trace: wraps the simulated
  strace/ltrace interposition, three human-readable outputs, barrier
  timing jobs for skew/drift accounting;
* :mod:`repro.frameworks.tracefs` — Tracefs: a stackable tracing file
  system with declarative granularity control, binary output
  (buffering/compression/checksums), and CBC field anonymization;
* :mod:`repro.frameworks.ptrace` — //TRACE: MPI-IO library interposition,
  throttling-based inter-node dependency discovery, replayable trace
  generation with a fidelity/overhead sampling knob.

All implement the :class:`~repro.frameworks.base.TracingFramework`
interface, so the taxonomy harness can measure any of them identically.
"""

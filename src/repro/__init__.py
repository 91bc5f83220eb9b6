"""repro — reproduction of "Towards an I/O Tracing Framework Taxonomy".

(Konwinski, Bent, Nunez, Quist — LANL, SC 2007.)

The library has three strata:

1. **The taxonomy** (:mod:`repro.core`) — the paper's contribution:
   thirteen typed classification features, validated framework
   classifications, summary tables (Tables 1-2), comparison, and a
   requirements→recommendation engine.
2. **Three I/O Tracing Frameworks** (:mod:`repro.frameworks`) —
   LANL-Trace, Tracefs, and //TRACE, faithfully rebuilt over a simulated
   HPC substrate, plus the shared trace data model (:mod:`repro.trace`),
   analysis tools (:mod:`repro.analysis`), and replay machinery
   (:mod:`repro.replay`).
3. **The substrate** (:mod:`repro.des`, :mod:`repro.cluster`,
   :mod:`repro.simos`, :mod:`repro.simfs`, :mod:`repro.simmpi`,
   :mod:`repro.workloads`, :mod:`repro.harness`) — a deterministic
   discrete-event simulation of the paper's testbed: a 32-node Linux
   cluster with imperfect clocks, a RAID-5-backed parallel file system,
   NFS, local disks, and an MPI/MPI-IO runtime, driven by the LANL
   ``mpi_io_test`` synthetic benchmark.

Real-machine tracing (strace wrapping and an in-process Python I/O
interposer) lives in :mod:`repro.host`.

Quick start::

    from repro.frameworks.lanltrace.framework import LANLTrace
    from repro.harness.experiment import measure_overhead
    from repro.units import KiB
    from repro.workloads.mpi_io_test import mpi_io_test
    from repro.workloads.patterns import AccessPattern

    m = measure_overhead(
        LANLTrace,
        mpi_io_test,
        {"pattern": AccessPattern.N_TO_1_STRIDED,
         "block_size": 64 * KiB, "nobj": 128, "path": "/pfs/out"},
        nprocs=32,
    )
    print("elapsed time overhead: %.0f%%" % (100 * m.elapsed_overhead))
"""

__version__ = "1.1.0"

from repro import errors, units

__all__ = ["errors", "units", "__version__"]

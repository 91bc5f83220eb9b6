"""Synthetic workloads.

:mod:`repro.workloads.mpi_io_test` reimplements the LANL ``mpi_io_test``
synthetic application (paper reference [4]) the paper used for every
overhead measurement, with the three parallel I/O access patterns of
§4.1.2 defined in :mod:`repro.workloads.patterns`.  Additional workloads
for wider testing live in :mod:`repro.workloads.generators`.
"""

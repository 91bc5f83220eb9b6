"""Simulated MPI runtime.

A deliberately small MPI modelled on the mpi4py API (the idioms of the
HPC-parallel guides): communicators with ``send``/``recv``/``barrier``/
``bcast``/``gather``/``reduce``, and MPI-IO files with
``write_at``/``read_at`` over the simulated storage stack.

MPI functions are *library calls*: they dispatch through each rank's
:class:`~repro.simos.process.SimProcess` library seam, so an attached
ltrace-style interposer (LANL-Trace in ltrace mode, //TRACE) sees
``MPI_Barrier``, ``MPI_File_open``, ... while the syscalls they make
underneath (``SYS_open``, ``SYS_write``...) appear at the syscall seam —
reproducing the two-level capture visible in the paper's Figure 1.
"""

"""LANL-Trace (paper §2.1, §4.1).

A deliberately simple tracing framework: wrap every rank of an MPI job
with ``ltrace`` (library + system calls) or ``strace`` (system calls
only), bracket the application with barrier timing jobs for skew/drift
accounting, and emit three human-readable outputs (Figure 1): raw trace
data, aggregate timing information, and a call summary.

Simplicity is the trade-off: per-event ptrace stops make the overhead
large and strongly block-size-dependent (Figures 2-4; 24%-222% elapsed
time overhead).
"""

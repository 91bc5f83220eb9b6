"""Simulated operating-system layer.

Provides what the tracing frameworks interpose on:

* :class:`~repro.simos.process.SimProcess` — a process with a file
  descriptor table issuing POSIX-style system calls against the VFS;
* :class:`~repro.simos.interpose.Interposer` — the strace/ltrace-style
  interposition mechanism: each attached interposer charges a per-event
  stop-and-record cost and captures a :class:`~repro.trace.events.TraceEvent`,
  reproducing the cost structure behind the paper's LANL-Trace overhead
  measurements (constant cost per traced event, §4.1.2);
* :mod:`~repro.simos.syscalls` — syscall naming/formatting helpers that
  make simulated traces look like the paper's Figure 1.
"""

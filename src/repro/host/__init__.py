"""Real-OS tracing: the non-simulated end of the library.

The simulated cluster reproduces the paper's *measurements*; this package
keeps the library useful on a real machine, within the limits of what is
installable offline (per the reproduction constraints: ptrace/strace
wrappers only, no native interposition):

* :mod:`repro.host.strace_wrapper` — run a command under the system
  ``strace`` (when installed) and collect its output, LANL-Trace style;
* :mod:`repro.host.parser` — parse real strace text output into
  :class:`~repro.trace.events.TraceEvent` streams, so every analysis /
  anonymization / summary / replay-scripting tool in this library works
  on real traces;
* :mod:`repro.host.pyio` — a pure-Python in-process interposer for
  tracing the ``os``-level I/O of Python workloads without root, strace,
  or native code (the //TRACE mechanism, one level up).
"""

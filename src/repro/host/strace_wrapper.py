"""LANL-Trace-style wrapping of the real ``strace``.

LANL-Trace "wraps the standard Linux/Unix library and system call tracing
utility ltrace, or optionally, its system call only variant, strace"
(§2.1).  This module is that wrapper for the host system: launch a
command under ``strace -f -T -ttt``, collect the per-process output, and
parse it into the library's shared event model.

Degrades loudly, not silently: :func:`run_under_strace` raises
:class:`~repro.errors.StraceNotAvailable` when the binary is missing
(tests skip; the simulator is unaffected).
"""

from __future__ import annotations

import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from repro.errors import HostTracingError, StraceNotAvailable
from repro.host.parser import parse_strace
from repro.trace.records import TraceBundle, TraceFile

__all__ = ["strace_available", "run_under_strace", "HostTraceResult"]


def strace_available() -> bool:
    """Is the real ``strace`` binary on PATH?"""
    return shutil.which("strace") is not None


@dataclass
class HostTraceResult:
    """A traced host command: exit status plus the parsed bundle."""

    returncode: int
    bundle: TraceBundle
    raw_output: str


def run_under_strace(
    command: Sequence[str],
    timeout: Optional[float] = 120.0,
    extra_strace_args: Sequence[str] = (),
) -> HostTraceResult:
    """Run ``command`` under ``strace -f -T -ttt`` and parse the trace.

    ``-f`` follows children (parallel workloads fork), ``-T`` records
    per-call durations (the ``<0.000034>`` suffixes of Figure 1), and
    ``-ttt`` stamps epoch-seconds timestamps.
    """
    if not strace_available():
        raise StraceNotAvailable(
            "strace is not installed on this host; the simulated tracers "
            "in repro.frameworks are unaffected"
        )
    if not command:
        raise HostTracingError("empty command")
    with tempfile.TemporaryDirectory(prefix="repro-strace-") as tmp:
        out_path = Path(tmp) / "trace.out"
        argv: List[str] = [
            "strace",
            "-f",
            "-T",
            "-ttt",
            "-o",
            str(out_path),
            *extra_strace_args,
            "--",
            *command,
        ]
        try:
            proc = subprocess.run(
                argv,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise HostTracingError("traced command timed out: %s" % exc) from None
        except OSError as exc:
            raise HostTracingError("failed to launch strace: %s" % exc) from None
        raw = out_path.read_text() if out_path.exists() else ""
    events = parse_strace(raw).events
    tf = TraceFile(events, framework="host-strace")
    bundle = TraceBundle(
        files={0: tf},
        metadata={"framework": "host-strace", "command": list(command)},
    )
    return HostTraceResult(
        returncode=proc.returncode, bundle=bundle, raw_output=raw
    )

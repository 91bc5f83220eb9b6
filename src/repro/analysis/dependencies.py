"""Dependency analysis over traces.

Two complementary sources of dependency information exist in this
library, matching the paper's discussion of "Reveals Dependencies"
(§3.1):

* **empirical** — //TRACE's throttling produces a
  :class:`~repro.frameworks.ptrace.depmap.DependencyMap` (causal, needs
  the expensive discovery runs);
* **inferred** — this module: read/write data-flow edges recovered from
  the traces alone (cheap, but only sees dependencies that manifest as
  shared-file access, and inherits clock-skew ordering risk unless a
  skew-corrected timeline is supplied).

A call writes or reads as the op table
(:data:`repro.trace.events.OP_KINDS`) says, so a nonblocking
``MPI_File_iwrite_at`` is a write here as it is to the replayer.  Each
trace's accesses come from the lowest layer it holds any at
(:func:`repro.trace.events.lowest_layer`), so a transfer captured as an
MPI-IO call and as the system call beneath it counts once.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.skew import ClockEstimate, correct_timestamp
from repro.trace.events import calls_of, lowest_layer
from repro.trace.records import TraceBundle

__all__ = ["infer_data_dependencies", "dependency_summary"]

_WRITES = calls_of("write")
_READS = calls_of("read")


def infer_data_dependencies(
    bundle: TraceBundle,
    estimates: Optional[Dict[int, ClockEstimate]] = None,
) -> Dict[Tuple[int, int], Dict[str, Any]]:
    """Writer→reader edges from shared-file access order.

    An edge ``(a, b) -> {"path": p, "count": n}`` means rank ``a`` wrote
    a file that rank ``b`` subsequently read, ``n`` times in all, ``p``
    being the first such file.  Ordering uses skew-corrected time when
    ``estimates`` is given, raw local time otherwise.
    """
    accesses: List[Tuple[float, int, str, str]] = []  # (t, rank, kind, path)
    for key, tf in bundle.files.items():
        rank = tf.rank if tf.rank is not None else key
        for e in lowest_layer([
            e for e in tf.events
            if e.path is not None and (e.name in _WRITES or e.name in _READS)
        ]):
            kind = "w" if e.name in _WRITES else "r"
            t = (
                correct_timestamp(estimates, rank, e.timestamp)
                if estimates is not None
                else e.timestamp
            )
            accesses.append((t, rank, kind, e.path))
    accesses.sort(key=lambda a: a[0])

    edges: Dict[Tuple[int, int], Dict[str, Any]] = {}
    last_writer: Dict[str, int] = {}
    for _t, rank, kind, path in accesses:
        if kind == "w":
            last_writer[path] = rank
        else:
            writer = last_writer.get(path)
            if writer is not None and writer != rank:
                edge = edges.get((writer, rank))
                if edge is None:
                    edges[writer, rank] = {"path": path, "count": 1}
                else:
                    edge["count"] += 1
    return edges


def dependency_summary(edges: Dict[Tuple[int, int], Dict[str, Any]]) -> str:
    """One-line-per-edge rendering of :func:`infer_data_dependencies`."""
    if not edges:
        return "# no cross-rank data dependencies observed\n"
    lines = ["# inferred data dependencies (writer -> reader)"]
    for (a, b), data in sorted(edges.items()):
        lines.append(
            "  rank %s -> rank %s  (%d transfer(s), e.g. %s)"
            % (a, b, data["count"], data["path"])
        )
    return "\n".join(lines) + "\n"

"""Pseudo-application generation from trace data.

A pseudo-application is a per-rank script of I/O operations with the
*think times* (non-I/O gaps) between them, extracted from a trace bundle.
Replaying the script re-issues the same I/O with the same pacing — the
trace becomes distributable and replayable without the original
application's source, inputs, or (sensitive) data: exactly why LANL wants
replayable traces for collaboration (§1).

Two subtleties handled here, both from //TRACE's design:

* **deperturbation** — think times measured under tracing include the
  tracer's own per-event cost; the builder subtracts a caller-supplied
  estimate so the pseudo-app does not replay the tracer's overhead;
* **synchronization points** — when the source application synchronized
  (barriers, collective opens), replays must too, or ranks drift apart.
  Barrier-like events in the trace become ``sync`` ops, which the
  replayer executes as barriers *if* the dependency map says ranks are
  actually coupled.

Which traced call becomes which op is :data:`repro.trace.events.OP_KINDS`:
the scripting layer's table gives each event its op kind, and the MPI
sync calls (:data:`~repro.trace.events.SYNC_CALLS`) script as ``sync``
from any layer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.errors import ReplayError
from repro.trace.events import OP_KINDS, SYNC_CALLS, EventLayer, TraceEvent
from repro.trace.records import TraceBundle

__all__ = ["ReplayOp", "RankScript", "PseudoApp", "build_pseudoapp"]


@dataclass(frozen=True, slots=True)
class ReplayOp:
    """One scripted operation.

    ``think_time`` is the CPU gap *before* this op; ``kind`` is one of
    open/close/write/read/fsync/stat/unlink/mkdir/sync.

    A compile builds one per scripted event, so, as for
    :class:`~repro.trace.events.TraceEvent`, the constructor is written
    out and fills the slots through their member descriptors
    (``_SET_*`` below) instead of the frozen ``__setattr__``.  A
    negative think time, or a read or write without ``nbytes``, raises
    :class:`~repro.errors.ReplayError`.
    """

    kind: str
    think_time: float
    path: Optional[str] = None
    offset: Optional[int] = None
    nbytes: Optional[int] = None

    def __init__(
        self,
        kind: str,
        think_time: float,
        path: Optional[str] = None,
        offset: Optional[int] = None,
        nbytes: Optional[int] = None,
    ) -> None:
        if think_time < 0:
            raise ReplayError("negative think time")
        if nbytes is None and kind in ("write", "read"):
            raise ReplayError("%s op needs nbytes" % kind)
        _SET_KIND(self, kind)
        _SET_THINK_TIME(self, think_time)
        _SET_PATH(self, path)
        _SET_OFFSET(self, offset)
        _SET_NBYTES(self, nbytes)


_SET_KIND, _SET_THINK_TIME, _SET_PATH, _SET_OFFSET, _SET_NBYTES = (
    ReplayOp.__dict__[f.name].__set__ for f in fields(ReplayOp)
)


@dataclass
class RankScript:
    """All of one rank's operations, in issue order."""

    rank: int
    ops: List[ReplayOp] = field(default_factory=list)

    @property
    def io_bytes(self) -> int:
        return sum(op.nbytes or 0 for op in self.ops if op.kind in ("write", "read"))

    @property
    def n_io_ops(self) -> int:
        return sum(1 for op in self.ops if op.kind in ("write", "read"))


@dataclass
class PseudoApp:
    """A complete replayable pseudo-application."""

    scripts: Dict[int, RankScript]
    source_framework: str = ""
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def nprocs(self) -> int:
        return len(self.scripts)

    def total_io_bytes(self) -> int:
        """Payload bytes scripted across all ranks."""
        return sum(s.io_bytes for s in self.scripts.values())


class _FdState:
    """Compile-time descriptor table: resolves fd-only events to paths.

    Close and fsync events (and strace read/write lines) carry a file
    descriptor but no path; the open event that produced the descriptor
    carries both the path and — as its result — the fd number.  Walking
    the trace with this table turns fd-addressed events into scriptable
    path-addressed ops, and assigns sequential offsets to positional
    reads/writes that recorded none (strace sources).
    """

    def __init__(self) -> None:
        self.paths: Dict[int, str] = {}
        self.positions: Dict[int, int] = {}

    def opened(self, event: TraceEvent) -> None:
        if event.path is not None and isinstance(event.result, int) and event.result >= 0:
            self.paths[event.result] = event.path
            self.positions[event.result] = 0

    def resolve(self, event: TraceEvent) -> Optional[str]:
        if event.path is not None:
            return event.path
        if event.fd is not None:
            return self.paths.get(event.fd)
        return None

    def offset_for(self, event: TraceEvent, kind: str) -> Optional[int]:
        if event.offset is not None:
            return event.offset
        if kind not in ("read", "write") or event.fd is None:
            return None
        pos = self.positions.get(event.fd, 0)
        self.positions[event.fd] = pos + (event.nbytes or 0)
        return pos

    def closed(self, event: TraceEvent) -> None:
        if event.fd is not None:
            self.paths.pop(event.fd, None)
            self.positions.pop(event.fd, None)


def build_pseudoapp(
    bundle: TraceBundle,
    layer: EventLayer = EventLayer.LIBCALL,
    per_event_overhead: float = 0.0,
    min_think_time: float = 0.0,
) -> PseudoApp:
    """Extract a pseudo-application from a trace bundle.

    ``layer`` selects which capture level to script from (library-level
    for //TRACE-style traces; syscall-level for strace-style LANL-Trace
    raw traces — the paper's "trivial to imagine" replayer).
    ``per_event_overhead`` is subtracted from every think-time gap per
    intervening traced event (deperturbation).

    The returned app's ``metadata["unreplayable"]`` counts the events at
    the scripting layer that could not be compiled into ops (unknown
    names, fd-addressed events whose open predates the capture), per
    event name — the fidelity report surfaces them so a lossy compile is
    never mistaken for an exact one.  For the same reason a bundle with
    events but none at ``layer`` (and no sync call) raises
    :class:`~repro.errors.ReplayError` naming the layers it holds: its
    empty schedule would pass as an exact replay.
    """
    kinds = OP_KINDS[layer]
    scripts: Dict[int, RankScript] = {}
    unreplayable: Dict[str, int] = {}
    scriptable = 0
    for key in sorted(bundle.files):
        tf = bundle.files[key]
        rank = tf.rank if tf.rank is not None else key
        script = RankScript(rank=rank)
        fd_state = _FdState()
        prev_end: Optional[float] = None
        pending_gap = 0.0
        for e in tf.events:
            if prev_end is not None:
                pending_gap += max(0.0, e.timestamp - prev_end)
                pending_gap -= per_event_overhead
            prev_end = e.end_timestamp
            if e.layer is layer:
                kind = kinds.get(e.name)
            elif e.layer is EventLayer.LIBCALL and e.name in SYNC_CALLS:
                # Synchronization calls become sync ops regardless of the
                # scripting layer: a syscall-level script still needs to
                # know where the application barriered.
                kind = "sync"
            else:
                continue
            scriptable += 1
            if kind is None:
                unreplayable[e.name] = unreplayable.get(e.name, 0) + 1
                continue
            path = e.path if kind == "sync" else fd_state.resolve(e)
            if kind != "sync" and path is None:
                # fd-addressed event whose open predates the capture (or a
                # path-less metadata call): not scriptable, but counted.
                unreplayable[e.name] = unreplayable.get(e.name, 0) + 1
                continue
            offset = fd_state.offset_for(e, kind)
            think = max(min_think_time, pending_gap)
            pending_gap = 0.0
            script.ops.append(ReplayOp(kind, think, path, offset, e.nbytes))
            if kind == "open":
                fd_state.opened(e)
            elif kind == "close":
                fd_state.closed(e)
        scripts[rank] = script
    if not scripts:
        raise ReplayError("bundle has no trace files to script from")
    if not scriptable:
        held = Counter(e.layer for tf in bundle.files.values() for e in tf.events)
        if held:
            raise ReplayError(
                "bundle has no %s events to script from (it holds %s)"
                % (layer.value, ", ".join(
                    "%s=%d" % (l.value, held[l]) for l in EventLayer if held[l]))
            )
    return PseudoApp(
        scripts=scripts,
        source_framework=str(bundle.metadata.get("framework", "")),
        metadata={
            "layer": layer.value,
            "per_event_overhead": per_event_overhead,
            "unreplayable": dict(sorted(unreplayable.items())),
        },
    )

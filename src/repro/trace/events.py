"""The trace event model.

A single flat :class:`TraceEvent` record covers every event type the
taxonomy enumerates (§3.1 "Event types"): system calls, library calls
(MPI/MPI-IO functions), and file-system (VFS) operations.  One shared model
— rather than per-framework formats — is deliberately the paper's
future-work "single trace-data API": every framework in
:mod:`repro.frameworks` emits these, and every codec, anonymizer, analysis
tool, and replayer consumes them.

Timestamps are **node-local** (from :class:`repro.cluster.clock.Clock`),
exactly as a real tracer records them; converting to a global timeline
requires the skew/drift machinery in :mod:`repro.analysis.skew`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from typing import Any, Optional, Tuple

__all__ = ["EventLayer", "TraceEvent"]


class EventLayer(str, enum.Enum):
    """Where in the stack an event was captured.

    Mirrors the taxonomy's event-type distinctions:

    * ``SYSCALL`` — system I/O calls (strace level; LANL-Trace with strace,
      //TRACE's interposed I/O system calls);
    * ``LIBCALL`` — linked library calls (ltrace level; MPI/MPI-IO
      functions);
    * ``VFS`` — file-system operations (the level Tracefs captures, which
      sees events lower levels miss, e.g. memory-mapped I/O and NFS calls);
    * ``NET`` — messages between nodes (the taxonomy's third event type).
    """

    SYSCALL = "syscall"
    LIBCALL = "libcall"
    VFS = "vfs"
    NET = "net"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One traced event.

    Attributes
    ----------
    timestamp:
        Node-local time at call entry (seconds, Unix-epoch-like).
    duration:
        Elapsed local time of the call — strace's ``<0.000034>`` suffix.
    layer:
        Capture layer, see :class:`EventLayer`.
    name:
        Function name in the style of the paper's Figure 1: ``SYS_open``,
        ``SYS_write``, ``MPI_File_open``, ``vfs_write``...
    args:
        Printable argument tuple (strings, ints).  For replay and
        anonymization, I/O-relevant arguments are *also* duplicated into
        the typed fields below; ``args`` preserves presentation order.
    result:
        Return value (int or string form); None while/if unfinished.
    pid / rank / hostname / user:
        Identity of the caller.  ``user`` is sensitive and a target of
        anonymization; ``rank`` is None for non-MPI processes.
    path / fd / nbytes / offset:
        Typed I/O fields for events that have them (None otherwise).

    Every traced call builds one, so the constructor is written out
    rather than generated: it fills the slots through their member
    descriptors (``_SET_*`` below), which skips the frozen
    ``__setattr__`` that a generated ``__init__`` pays once per field.
    A string ``layer`` becomes an :class:`EventLayer`, any iterable
    ``args`` a tuple, and a negative ``duration`` raises ``ValueError``.
    """

    timestamp: float
    duration: float
    layer: EventLayer
    name: str
    args: Tuple[Any, ...] = ()
    result: Optional[Any] = None
    pid: int = 0
    rank: Optional[int] = None
    hostname: str = ""
    user: str = ""
    path: Optional[str] = None
    fd: Optional[int] = None
    nbytes: Optional[int] = None
    offset: Optional[int] = None

    def __init__(
        self,
        timestamp: float,
        duration: float,
        layer: EventLayer,
        name: str,
        args: Tuple[Any, ...] = (),
        result: Optional[Any] = None,
        pid: int = 0,
        rank: Optional[int] = None,
        hostname: str = "",
        user: str = "",
        path: Optional[str] = None,
        fd: Optional[int] = None,
        nbytes: Optional[int] = None,
        offset: Optional[int] = None,
    ) -> None:
        if duration < 0:
            raise ValueError("event duration must be non-negative")
        if layer.__class__ is not EventLayer:
            layer = EventLayer(layer)
        if args.__class__ is not tuple:
            args = tuple(args)
        _SET_TIMESTAMP(self, timestamp)
        _SET_DURATION(self, duration)
        _SET_LAYER(self, layer)
        _SET_NAME(self, name)
        _SET_ARGS(self, args)
        _SET_RESULT(self, result)
        _SET_PID(self, pid)
        _SET_RANK(self, rank)
        _SET_HOSTNAME(self, hostname)
        _SET_USER(self, user)
        _SET_PATH(self, path)
        _SET_FD(self, fd)
        _SET_NBYTES(self, nbytes)
        _SET_OFFSET(self, offset)

    def __reduce__(self) -> tuple:
        # Rebuild through the constructor: the same on every Python, and
        # cheaper than the per-field state a frozen slotted class pickles.
        return (
            TraceEvent,
            (
                self.timestamp, self.duration, self.layer, self.name,
                self.args, self.result, self.pid, self.rank, self.hostname,
                self.user, self.path, self.fd, self.nbytes, self.offset,
            ),
        )

    # -- convenience ----------------------------------------------------------

    @property
    def end_timestamp(self) -> float:
        """Local time at call return."""
        return self.timestamp + self.duration

    @property
    def is_io(self) -> bool:
        """True for events that move payload bytes (read/write style)."""
        return self.nbytes is not None

    def with_fields(self, **changes: Any) -> "TraceEvent":
        """Return a copy with ``changes`` applied (events are immutable)."""
        return replace(self, **changes)

    def brief(self) -> str:
        """One-line human summary (not the canonical text format)."""
        argstr = ", ".join(repr(a) for a in self.args)
        res = "" if self.result is None else " = %s" % (self.result,)
        return "%s(%s)%s <%0.6f>" % (self.name, argstr, res, self.duration)


(
    _SET_TIMESTAMP, _SET_DURATION, _SET_LAYER, _SET_NAME, _SET_ARGS,
    _SET_RESULT, _SET_PID, _SET_RANK, _SET_HOSTNAME, _SET_USER, _SET_PATH,
    _SET_FD, _SET_NBYTES, _SET_OFFSET,
) = (TraceEvent.__dict__[f.name].__set__ for f in fields(TraceEvent))

"""The trace event model.

A single flat :class:`TraceEvent` record covers every event type the
taxonomy enumerates (§3.1 "Event types"): system calls, library calls
(MPI/MPI-IO functions), and file-system (VFS) operations.  One shared model
— rather than per-framework formats — is deliberately the paper's
future-work "single trace-data API": every framework in
:mod:`repro.frameworks` emits these, and every codec, anonymizer, analysis
tool, and replayer consumes them.

The same goes for what each event *is*: :data:`OP_KINDS` is the one
table naming every syscall, libcall and VFS call's replay op kind
(``sync`` marks the MPI calls where ranks synchronize), and
:data:`KIND_CLASS` puts each op kind in its fidelity class (read, write
or metadata).  Every name set the replayer, the fidelity account, the
analysis tools, the strace parser, critical-path attribution and
//TRACE's sync markers use is a projection of these two tables
(:func:`calls_of`).  The module imports only the standard library, so
readers of the table never load the simulator.

Timestamps are **node-local** (from :class:`repro.cluster.clock.Clock`),
exactly as a real tracer records them; converting to a global timeline
requires the skew/drift machinery in :mod:`repro.analysis.skew`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

__all__ = [
    "EventLayer",
    "TraceEvent",
    "OP_KINDS",
    "OP_CLASSES",
    "KIND_CLASS",
    "calls_of",
    "SYNC_CALLS",
    "IO_DATA_SYSCALLS",
    "lowest_layer",
]


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


#: What each traced call is: its replay op kind, per capture layer.  A
#: name missing from its layer's table is not replayed; messages
#: (``NET``) never are.
OP_KINDS: Dict[EventLayer, Dict[str, str]] = {
    EventLayer.SYSCALL: {
        "SYS_open": "open",
        "SYS_close": "close",
        "SYS_write": "write",
        "SYS_pwrite64": "write",
        "SYS_read": "read",
        "SYS_pread64": "read",
        "SYS_fsync": "fsync",
        # Metadata ops: without them a metadata-heavy trace (create/stat/
        # unlink storms) would replay as an empty schedule.
        "SYS_stat64": "stat",
        "SYS_fstat64": "stat",
        "SYS_unlink": "unlink",
        "SYS_mkdir": "mkdir",
    },
    EventLayer.LIBCALL: {
        "MPI_File_open": "open",
        "MPI_File_close": "close",
        "MPI_File_write_at": "write",
        "MPI_File_iwrite_at": "write",
        "MPI_File_read_at": "read",
        "MPI_File_sync": "fsync",
        # Where ranks synchronize: a replay must too, or ranks drift apart.
        "MPI_Barrier": "sync",
        "MPI_Bcast": "sync",
        "MPI_Allreduce": "sync",
        "MPI_Allgather": "sync",
        "MPI_Gather": "sync",
    },
    # Tracefs-style VFS traces are replayable too — the Tracefs authors'
    # stated future work (§4.2), realized here.
    EventLayer.VFS: {
        "vfs_open": "open",
        "vfs_write": "write",
        "vfs_read": "read",
        "vfs_fsync": "fsync",
    },
    EventLayer.NET: {},
}

#: The fidelity account's op classes, in report order.
OP_CLASSES = ("read", "write", "metadata")

#: Op kind -> op class (``sync`` is control flow, not an I/O op).
KIND_CLASS: Dict[str, str] = {
    "read": "read",
    "write": "write",
    "open": "metadata",
    "close": "metadata",
    "fsync": "metadata",
    "stat": "metadata",
    "unlink": "metadata",
    "mkdir": "metadata",
}


def calls_of(
    *kinds: str, layers: Tuple[EventLayer, ...] = tuple(EventLayer)
) -> FrozenSet[str]:
    """The call names, over ``layers``, whose op kind is one of ``kinds``."""
    return frozenset(
        name
        for layer in layers
        for name, kind in OP_KINDS[layer].items()
        if kind in kinds
    )


#: The MPI calls where ranks synchronize: replay scripts them as ``sync``
#: ops and //TRACE records them as sync markers.
SYNC_CALLS = calls_of("sync")

#: Syscalls that move payload bytes — the ones whose per-event tracing cost
#: scales inversely with block size in the paper's overhead model.
IO_DATA_SYSCALLS = calls_of("read", "write", layers=(EventLayer.SYSCALL,))

#: The layers a call moves data at, from the bottom of the I/O stack up:
#: a library call reaches storage through the system calls beneath it,
#: and a system call through the VFS operations beneath that.
_LAYERS_BOTTOM_UP = (EventLayer.VFS, EventLayer.SYSCALL, EventLayer.LIBCALL)


def lowest_layer(events: Sequence[TraceEvent]) -> List[TraceEvent]:
    """The ``events`` captured at the lowest layer
    (VFS, then syscall, then libcall) that holds any of them.

    A trace that captures a transfer at two layers (an
    ``MPI_File_write_at`` and the ``SYS_write`` beneath it) holds it
    twice; reading one layer counts it once.
    """
    present = {e.layer for e in events}
    for layer in _LAYERS_BOTTOM_UP:
        if layer in present:
            return [e for e in events if e.layer == layer]
    return []

"""Tracefs: the stackable tracing file system.

The mechanism is a :class:`TracefsLayer`
(:class:`~repro.simfs.stackable.StackableFS` subclass) interposed into the
mount table by :meth:`Tracefs.prepare` — "Once mounted, any I/O written to
Tracefs can be traced at varying degrees of granularity" (§2.2).  Faithful
behaviours:

* **kernel-module ergonomics** — mounting requires root
  (``as_root=True``), else :class:`~repro.errors.PermissionDenied`; this
  is the installation friction behind Table 2's "4 (Difficult)";
* **no parallel FS support out of the box** — mounting over the parallel
  file system raises :class:`~repro.errors.NotTraceable` unless
  ``force_parallel_port=True`` (the paper found it incompatible with the
  LANL PFS but fine on ext3 and NFS);
* **low, granularity-dependent overhead** — an in-kernel hook charges a
  small per-op cost plus optional checksum/encryption costs, landing under
  the authors' reported 12.4% ceiling for full tracing ("Performance
  overhead varies greatly depending on which functionality is employed");
* **binary buffered output** — events buffer in memory and serialize with
  :mod:`repro.trace.binary_format` at unmount.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional

from repro.errors import NotTraceable, PermissionDenied
from repro.frameworks.base import TracingFramework
from repro.frameworks.tracefs.counters import EventCounters
from repro.frameworks.tracefs.granularity import GranularitySpec
from repro.simfs.stackable import StackableFS
from repro.simfs.vfs import CallerContext, FileSystem
from repro.trace.anonymize import FieldSelectiveAnonymizer
from repro.trace.binary_format import encode_trace_file
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceBundle, TraceFile

__all__ = ["Tracefs", "TracefsConfig", "TracefsLayer"]


@dataclass(frozen=True)
class TracefsConfig:
    """Mount options and cost calibration.

    Cost model: every VFS operation passing through the layer charges
    ``vfs_op_cost`` (hook dispatch + record assembly into the in-kernel
    buffer).  ``checksum_cost`` and ``encrypt_cost`` are the per-event
    prices of the optional output features — "additional overhead for
    advanced features such as encryption and checksum calculation" (§2.2).
    Counter-only aggregation (``counters_only=True``) records no events
    and charges just ``counter_cost``.
    """

    target_mount: str = "/tmp"
    spec: str = ""  # empty = trace everything
    as_root: bool = True
    force_parallel_port: bool = False
    checksum: bool = False
    compress: bool = False
    encrypt_fields: tuple = ()  # e.g. ("user", "path")
    encryption_key: Optional[bytes] = None
    counters_only: bool = False
    vfs_op_cost: float = 150e-6
    record_cost: float = 70e-6
    checksum_cost: float = 90e-6
    encrypt_cost: float = 160e-6
    counter_cost: float = 15e-6
    buffer_records: int = 128


class TracefsLayer(StackableFS):
    """The stackable layer: observes every lower operation."""

    fstype = "tracefs"

    def __init__(self, sim: Any, lower: FileSystem, config: TracefsConfig):
        super().__init__(sim, lower, name="tracefs(%s)" % lower.name)
        self.config = config
        self.spec = GranularitySpec(config.spec)
        self.sink = TraceFile(framework="tracefs")
        self.counters = EventCounters()
        self._anonymizer: Optional[FieldSelectiveAnonymizer] = None
        if config.encrypt_fields:
            self._anonymizer = FieldSelectiveAnonymizer(
                config.encrypt_fields, mode="encrypt", key=config.encryption_key
            )
        self.ops_seen = 0
        self.ops_recorded = 0
        # inode -> absolute path, learned from open ops, so data ops can
        # be attributed to files (and hence replayed).
        self._ino_paths: dict = {}

    # -- cost + capture hooks ------------------------------------------------------

    def before_op(self, ctx: CallerContext, op: str, args: tuple) -> Generator[Any, Any, None]:
        """Charge the entry half of the in-kernel hook cost."""
        # Hook dispatch happens whether or not the op ends up recorded.
        yield self.config.vfs_op_cost / 2.0

    def after_op(
        self, ctx: CallerContext, op: str, args: tuple, result: Any, duration: float
    ) -> Generator[Any, Any, None]:
        """Record (or count) the completed operation and charge its cost."""
        self.ops_seen += 1
        cost = self.config.vfs_op_cost / 2.0
        if op == "open":
            self._note_open(args, result)
        path, size = self._op_path_size(op, args)
        if self.spec.should_trace(op, path=path, size=size, uid=ctx.uid):
            if self.config.counters_only:
                self.counters.record(op, size, duration)
                cost += self.config.counter_cost
            else:
                cost += self.config.record_cost
                event = self._make_event(ctx, op, args, result, duration, path, size)
                if self._anonymizer is not None:
                    event = self._anonymizer(event)
                    cost += self.config.encrypt_cost
                if self.config.checksum:
                    cost += self.config.checksum_cost
                self.sink.append(event)
                self.counters.record(op, size, duration)
                self.ops_recorded += 1
        yield cost

    def _abs(self, relpath: str) -> str:
        return "%s/%s" % (self.config.target_mount.rstrip("/"), relpath)

    def _op_path_size(self, op: str, args: tuple):
        path = None
        size = None
        if op in ("open", "stat", "unlink", "mkdir", "readdir") and args:
            path = self._abs(args[0])
        if op in ("read", "write", "truncate", "fsync", "fstat") and args:
            path = self._ino_paths.get(args[0])
        if op in ("read", "write") and len(args) >= 3:
            size = args[2]
        return path, size

    def _note_open(self, args: tuple, result: Any) -> None:
        if args and isinstance(result, int):
            self._ino_paths[result] = self._abs(args[0])

    def _printable_args(self, op: str, args: tuple) -> tuple:
        """Trace args with paths absolutized (as the VFS caller saw them),
        so downstream anonymizers recognize every path-bearing field."""
        out = []
        for i, a in enumerate(args):
            if not isinstance(a, (str, int)):
                continue
            if isinstance(a, str) and (
                (i == 0 and op in ("open", "stat", "unlink", "mkdir", "readdir", "rename"))
                or (i == 1 and op == "rename")
            ):
                a = self._abs(a)
            out.append(a)
        return tuple(out)

    def _make_event(
        self, ctx: CallerContext, op: str, args: tuple, result: Any,
        duration: float, path, size,
    ) -> TraceEvent:
        rendered_result: Any
        if hasattr(result, "ino"):  # StatResult
            rendered_result = 0
        elif isinstance(result, (list, dict)):
            rendered_result = len(result)
        else:
            rendered_result = result
        return TraceEvent(
            timestamp=ctx.node.now_local() - duration,
            duration=duration,
            layer=EventLayer.VFS,
            name="vfs_%s" % op,
            args=self._printable_args(op, args),
            result=rendered_result,
            pid=ctx.pid,
            rank=None,
            hostname=ctx.node.hostname,
            user=ctx.user,
            path=path,
            nbytes=size,
            offset=args[1] if op in ("read", "write") and len(args) >= 2 else None,
        )

    # -- output ------------------------------------------------------------------------

    def serialize(self) -> bytes:
        """The binary trace (buffered/compressed/checksummed as configured)."""
        return encode_trace_file(
            self.sink,
            compressed=self.config.compress,
            checksum=True,
            block_records=self.config.buffer_records,
        )


class Tracefs(TracingFramework):
    """Tracefs as a measurable framework: mount, run, unmount, bundle."""

    name = "tracefs"

    def __init__(self, config: Optional[TracefsConfig] = None):
        self.config = config or TracefsConfig()
        self.layer: Optional[TracefsLayer] = None
        self._testbed = None

    def prepare(self, testbed: Any) -> None:
        """Interpose the tracing layer over the target mount.

        Reproduces the paper's installation findings: root is required
        (kernel module), and the parallel file system is rejected unless
        explicitly forced.
        """
        if not self.config.as_root:
            raise PermissionDenied(
                "mounting the tracefs kernel module requires root on every "
                "compute node (§2.2: 'dealing with root permissions')"
            )
        lower = testbed.vfs.unmount(self.config.target_mount)
        if lower.fstype == "pfs" and not self.config.force_parallel_port:
            testbed.vfs.mount(self.config.target_mount, lower)  # restore
            raise NotTraceable(
                "Tracefs is not compatible 'out of the box' with the parallel "
                "file system (§2.2); set force_parallel_port=True to model a "
                "ported build"
            )
        self.layer = TracefsLayer(testbed.sim, lower, self.config)
        testbed.vfs.mount(self.config.target_mount, self.layer)
        self._testbed = testbed

    def finalize(self, job: Any) -> TraceBundle:
        """Unmount the layer and bundle the captured VFS trace."""
        if self.layer is None:
            raise NotTraceable("Tracefs.finalize before prepare")
        # Unmount: restore the lower file system.
        if self._testbed is not None:
            self._testbed.vfs.unmount(self.config.target_mount)
            self._testbed.vfs.mount(self.config.target_mount, self.layer.lower)
        bundle = TraceBundle(
            files={0: self.layer.sink},
            metadata={
                "framework": self.name,
                "target_mount": self.config.target_mount,
                "counters": self.layer.counters.as_dict(),
                "ops_seen": self.layer.ops_seen,
                "ops_recorded": self.layer.ops_recorded,
                "binary": True,
            },
        )
        return bundle

    def classification(self):
        """Tracefs's taxonomy classification (Table 2, column 2).

        Configuration changes no cell: granularity and anonymization are
        *capabilities*, scored whether or not a mount enables them.
        """
        from repro.core.casestudy import tracefs_classification

        return tracefs_classification()

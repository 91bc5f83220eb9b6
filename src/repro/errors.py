"""Exception hierarchy for the ``repro`` package.

Every error raised by library code derives from :class:`ReproError` so that
callers can catch the whole family with one ``except`` clause.  Subsystems
define narrower subclasses here (rather than in their own modules) so the
full hierarchy is visible in one place and no import cycles arise between
low-level packages.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Discrete-event simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors in the discrete-event simulation kernel."""


class DeadlockError(SimulationError):
    """The event queue drained while simulated processes were still blocked.

    Raised by :meth:`repro.des.simulator.Simulator.run` when no events remain
    but at least one process has not terminated — the simulated system can
    make no further progress.

    ``blocked`` names the culprits (blocked non-daemon processes, with
    their wait reasons).  ``wait_reasons`` covers *every* still-live
    process including daemons, and ``recent_events`` is the tail of the
    telemetry ring buffer (the last dispatched kernel events) when a
    telemetry session was active — together, the post-mortem a silent
    hang would otherwise require a debugger for.
    """

    def __init__(
        self,
        blocked: list[str],
        wait_reasons: list[str] | None = None,
        recent_events: list[str] | None = None,
    ):
        self.blocked = list(blocked)
        self.wait_reasons = list(wait_reasons) if wait_reasons is not None else None
        self.recent_events = (
            list(recent_events) if recent_events is not None else None
        )
        lines = [
            "deadlock: no pending events but %d process(es) still blocked: %s"
            % (len(blocked), ", ".join(blocked))
        ]
        if self.wait_reasons:
            lines.append("blocked processes:")
            lines.extend("  - %s" % r for r in self.wait_reasons)
        if self.recent_events:
            lines.append(
                "last %d dispatched events (oldest first):" % len(self.recent_events)
            )
            lines.extend("  - %s" % e for e in self.recent_events)
        elif self.recent_events is None:
            lines.append(
                "(enable telemetry — repro.obs.tracepoints.session() or the "
                "--telemetry flag — to capture the dispatched-event history)"
            )
        super().__init__("\n".join(lines))


class ProcessError(SimulationError):
    """A simulated process misbehaved (e.g. yielded an unknown command)."""


class SimTimeError(SimulationError):
    """An operation would move simulated time backwards."""


class SimTimeoutError(SimulationError):
    """A bounded run hit its simulated-time horizon with work still pending.

    Raised by :func:`repro.simmpi.runtime.mpirun` (and the chaos harness)
    when a job was given a sim-time budget and ranks were still running
    when it expired.  ``pending_ranks`` names them; ``horizon`` is the
    budget that was exceeded.  The harness uses this as the retry signal
    for its exponential-backoff policy — a timed-out point is re-run with
    a doubled horizon rather than reported as a hang.
    """

    def __init__(self, horizon: float, pending_ranks: list[int] | None = None):
        self.horizon = float(horizon)
        self.pending_ranks = list(pending_ranks) if pending_ranks is not None else []
        msg = "job exceeded its simulated-time horizon of %gs" % self.horizon
        if self.pending_ranks:
            msg += " with rank(s) still running: %s" % ", ".join(
                str(r) for r in self.pending_ranks
            )
        super().__init__(msg)


class FaultError(SimulationError):
    """A fault schedule or fault plane was malformed or misused."""


# ---------------------------------------------------------------------------
# Simulated OS / file system
# ---------------------------------------------------------------------------


class SimOSError(ReproError):
    """Base class for simulated operating-system errors.

    Mirrors POSIX ``errno`` semantics: each subclass carries a symbolic
    ``errno_name`` matching the POSIX constant the real syscall would set.
    """

    errno_name = "EIO"


class FileNotFound(SimOSError):
    """Path does not resolve to an existing file (POSIX ENOENT)."""

    errno_name = "ENOENT"


class FileExists(SimOSError):
    """Exclusive create of a path that already exists (POSIX EEXIST)."""

    errno_name = "EEXIST"


class NotADirectory(SimOSError):
    """A path component used as a directory is not one (POSIX ENOTDIR)."""

    errno_name = "ENOTDIR"


class IsADirectory(SimOSError):
    """File operation applied to a directory (POSIX EISDIR)."""

    errno_name = "EISDIR"


class BadFileDescriptor(SimOSError):
    """Operation on a closed or never-opened descriptor (POSIX EBADF)."""

    errno_name = "EBADF"


class PermissionDenied(SimOSError):
    """Caller lacks permission for the operation (POSIX EACCES)."""

    errno_name = "EACCES"


class NoSpaceLeft(SimOSError):
    """Backing device is full (POSIX ENOSPC)."""

    errno_name = "ENOSPC"


class InvalidArgument(SimOSError):
    """Malformed syscall argument (POSIX EINVAL)."""

    errno_name = "EINVAL"


class CrossDeviceLink(SimOSError):
    """Operation spans two mounts (POSIX EXDEV)."""

    errno_name = "EXDEV"


class NotMounted(SimOSError):
    """Path prefix has no mounted file system."""

    errno_name = "ENODEV"


class InjectedIOError(SimOSError):
    """An I/O error the fault plane's disk layer injected (POSIX EIO)."""

    errno_name = "EIO"


class NodeCrashed(SimOSError):
    """The node a process runs on was killed by the fault plane.

    Doubles as the interrupt exception thrown into rank processes when
    their node crashes, and as the error any syscall dispatched on a
    down node raises — the closest POSIX analogue is EHOSTDOWN.
    """

    errno_name = "EHOSTDOWN"


# ---------------------------------------------------------------------------
# Simulated MPI
# ---------------------------------------------------------------------------


class MPIError(ReproError):
    """Base class for simulated MPI runtime errors."""


class RankError(MPIError):
    """Rank out of range for the communicator."""


class CollectiveMismatch(MPIError):
    """Ranks disagreed on a collective call (different ops or roots)."""


# ---------------------------------------------------------------------------
# Trace data
# ---------------------------------------------------------------------------


class TraceError(ReproError):
    """Base class for trace encoding/decoding/analysis errors."""


class TraceFormatError(TraceError):
    """Trace bytes/text do not conform to the expected format."""


class TraceChecksumError(TraceFormatError):
    """A binary trace frame failed checksum verification."""


class TraceTruncatedError(TraceFormatError):
    """A binary trace ended mid-record."""


class AnonymizationError(TraceError):
    """Anonymization could not be applied (unknown field, bad key...)."""


# ---------------------------------------------------------------------------
# Trace archive (TraceBank)
# ---------------------------------------------------------------------------


class StoreError(ReproError):
    """Base class for trace-archive (:mod:`repro.store`) errors."""


class StoreNotFound(StoreError):
    """The directory is not a TraceBank archive (no ``STORE.json`` marker)."""


class StoreCorruptionError(StoreError):
    """An archive invariant failed: bad segment checksum, dangling manifest
    reference, or a segment whose recomputed summary disagrees with its
    manifest entry.  ``repro store verify`` reports these without raising;
    direct segment reads raise."""


class StoreQueryError(StoreError):
    """A query/DFG request was malformed (unknown aggregate, bad filter)."""


# ---------------------------------------------------------------------------
# TraceBank service (repro.service)
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for TraceBank-as-a-service (:mod:`repro.service`) errors."""


class TenantNameError(ServiceError):
    """A tenant name is malformed (bad characters, too long, traversal)."""


class IngestQueueFull(ServiceError):
    """The bounded write-ahead ingest queue is at capacity.

    The HTTP layer maps this to ``429 Too Many Requests`` with a
    ``Retry-After`` header — explicit backpressure instead of unbounded
    buffering.  ``retry_after`` is the suggested wait in seconds.
    """

    def __init__(self, depth: int, capacity: int, retry_after: float = 1.0):
        self.depth = int(depth)
        self.capacity = int(capacity)
        self.retry_after = float(retry_after)
        super().__init__(
            "ingest queue full (%d/%d entries); retry in %.3gs"
            % (self.depth, self.capacity, self.retry_after)
        )


# ---------------------------------------------------------------------------
# Telemetry / observability
# ---------------------------------------------------------------------------


class TelemetryError(ReproError):
    """Telemetry export/validation failed (malformed trace, bad payload)."""


# ---------------------------------------------------------------------------
# Frameworks / taxonomy / harness
# ---------------------------------------------------------------------------


class FrameworkError(ReproError):
    """Base class for tracing-framework orchestration errors."""


class NotTraceable(FrameworkError):
    """Framework cannot trace the given workload/cluster combination.

    e.g. Tracefs mounted over a file system it is not compatible with, per
    the paper's finding that Tracefs did not work "out of the box" on the
    LANL parallel file system.
    """


class TaxonomyError(ReproError):
    """Base class for taxonomy schema/classification errors."""


class FeatureValueError(TaxonomyError):
    """A classification assigned a value outside the feature's domain."""


class MissingFeatureError(TaxonomyError):
    """A classification omitted a required taxonomy feature."""


class ReplayError(ReproError):
    """Replayable-trace generation or replay failed."""


class ReplayDivergence(ReplayError):
    """The pseudo-application's rank scripts disagree on synchronization.

    Partial capture (e.g. a node crash truncating a rank's trace) leaves
    ranks with different synchronization-point counts; honoring syncs
    would deadlock the replay.  The replayer detects this up front and
    reports it — replay reports divergence instead of hanging.
    ``sync_counts`` maps rank -> number of sync ops in its script.
    """

    def __init__(self, sync_counts: dict[int, int]):
        self.sync_counts = dict(sync_counts)
        detail = ", ".join(
            "rank %d: %d" % (r, n) for r, n in sorted(self.sync_counts.items())
        )
        super().__init__(
            "replay diverged: rank scripts disagree on synchronization "
            "points (%s) — the trace is partial (crash-truncated capture?); "
            "replay with honor_sync=False or regenerate the trace" % detail
        )


class HostTracingError(ReproError):
    """Real-OS tracing (strace wrapper / in-process interposer) failed."""


class StraceNotAvailable(HostTracingError):
    """The real ``strace`` binary is not installed on this host."""

"""Replay engine: execute a pseudo-application on a fresh testbed.

Each rank walks its script: charge the think time, perform the I/O.
``sync`` ops become real barriers when ``honor_sync`` is on — //TRACE's
dependency knowledge; with it off (no dependency information, e.g. heavy
sampling), ranks free-run on think times alone and can drift, degrading
end-to-end fidelity — the fidelity/overhead trade the paper describes
("user-control over replay accuracy by using sampling", §4.3).

Two documented timing policies (``timing=``):

``"preserve"`` (inter-arrival-preserving, the default)
    every op charges its recorded think time first, so the replay
    reproduces the source's pacing and its end-to-end run time is
    comparable to the original's (the paper's §3.1 fidelity check);
``"afap"`` (as fast as possible)
    think times are dropped and ops are issued back-to-back — the mode
    for stress-replaying an op schedule against a different simulated
    cluster, where only the op mix and byte totals are meant to carry
    over, not the wall time.

Either way the *op schedule* is identical: per-rank executed-op counts
and issued bytes — what :mod:`repro.replay.fidelity` compares against
the source — do not depend on the policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple

from repro.errors import ReplayDivergence, ReplayError, SimOSError
from repro.harness.testbed import build_testbed
from repro.machine import TestbedConfig
from repro.replay.pseudoapp import PseudoApp, RankScript
from repro.simfs.vfs import O_CREAT, O_RDWR
from repro.simmpi.comm import MPIRank
from repro.simmpi.runtime import JobResult, mpirun

__all__ = ["RankReplayStats", "ReplayResult", "TIMING_POLICIES", "replay"]

TIMING_POLICIES = ("preserve", "afap")


@dataclass(frozen=True)
class RankReplayStats:
    """One rank's replay outcome: per-class executed ops and bytes.

    ``bytes_written``/``bytes_read`` are the bytes the simulated storage
    actually moved; ``issued_*`` are the bytes the script *requested*
    (what fidelity compares against the source trace — a read past EOF
    transfers less but was still issued exactly as scripted).  ``ops``
    counts executed script ops per kind; ``skipped`` counts script ops
    that could not execute (close/fsync with no open descriptor — the
    partial-capture case).  Both are sorted tuples so the dataclass stays
    hashable and canonical-JSON-stable.
    """

    rank: int
    bytes_written: int = 0
    bytes_read: int = 0
    issued_write_bytes: int = 0
    issued_read_bytes: int = 0
    ops: Tuple[Tuple[str, int], ...] = ()
    skipped: Tuple[Tuple[str, int], ...] = ()

    @property
    def bytes_moved(self) -> int:
        return self.bytes_written + self.bytes_read

    def ops_dict(self) -> Dict[str, int]:
        """Executed ops per kind, as a plain dict."""
        return dict(self.ops)

    def skipped_dict(self) -> Dict[str, int]:
        """Unexecutable ops per kind, as a plain dict."""
        return dict(self.skipped)


def _ensure_parents(proc, path: str) -> Generator[Any, Any, None]:
    """mkdir -p the directories above ``path`` on the replay machine.

    Traces carry file paths but not the mkdir history that created their
    directories (those may predate tracing); the replayer recreates them.
    These infrastructure mkdirs are *not* counted as executed ops — only
    script ops are, so fidelity op counts compare schedule to schedule.
    """
    parts = path.strip("/").split("/")[:-1]
    for depth in range(1, len(parts) + 1):
        prefix = "/" + "/".join(parts[:depth])
        try:
            yield from proc.mkdir(prefix)
        except Exception:
            pass  # exists, or is a mount point


def _replay_rank(mpi: MPIRank, args: Dict[str, Any]) -> Generator[Any, Any, RankReplayStats]:
    """The pseudo-application body for one rank."""
    app: PseudoApp = args["pseudoapp"]
    honor_sync: bool = args.get("honor_sync", True)
    preserve_timing: bool = args.get("timing", "preserve") == "preserve"
    script: Optional[RankScript] = app.scripts.get(mpi.rank)
    if script is None:
        return RankReplayStats(rank=mpi.rank)
    proc = mpi.proc
    fds: Dict[str, int] = {}
    made_dirs: set = set()
    written = read = issued_w = issued_r = 0
    executed: Dict[str, int] = {}
    skipped: Dict[str, int] = {}

    def _open(path: str) -> Generator[Any, Any, int]:
        parent = path.rsplit("/", 1)[0]
        if parent not in made_dirs:
            yield from _ensure_parents(proc, path)
            made_dirs.add(parent)
        fd = yield from proc.open(path, O_RDWR | O_CREAT)
        return fd

    for op in script.ops:
        if preserve_timing and op.think_time > 0:
            yield from proc._charge(op.think_time)
        if op.kind == "sync":
            if honor_sync:
                yield from mpi.barrier()
            executed["sync"] = executed.get("sync", 0) + 1
            continue
        if op.path is None:
            raise ReplayError("%s op without a path" % op.kind)
        if op.kind == "open":
            if op.path not in fds:
                fds[op.path] = yield from _open(op.path)
            executed["open"] = executed.get("open", 0) + 1
            continue
        if op.kind in ("close", "fsync"):
            fd = fds.get(op.path)
            if fd is None:
                skipped[op.kind] = skipped.get(op.kind, 0) + 1
                continue
            if op.kind == "close":
                yield from proc.close(fds.pop(op.path))
            else:
                yield from proc.fsync(fd)
            executed[op.kind] = executed.get(op.kind, 0) + 1
            continue
        if op.kind in ("stat", "unlink", "mkdir"):
            # Replayed metadata calls tolerate state divergence (a stat
            # of a never-replayed file, mkdir of an existing directory):
            # the op still executes — and is counted — even if the
            # simulated kernel answers with an errno, exactly as the
            # original's failed calls were still traced.
            try:
                if op.kind == "stat":
                    yield from proc.stat(op.path)
                elif op.kind == "unlink":
                    yield from proc.unlink(op.path)
                else:
                    yield from proc.mkdir(op.path)
            except SimOSError:
                pass
            executed[op.kind] = executed.get(op.kind, 0) + 1
            continue
        if op.kind in ("write", "read"):
            fd = fds.get(op.path)
            if fd is None:
                fd = fds[op.path] = yield from _open(op.path)
            nbytes = op.nbytes or 0
            if op.kind == "write":
                written += yield from proc.pwrite(fd, nbytes, op.offset or 0)
                issued_w += nbytes
            else:
                # Replayed reads hit whatever the replay wrote; reading
                # past EOF (never-written regions) is fine — size is what
                # the storage model charges for.
                read += yield from proc.pread(fd, nbytes, op.offset or 0)
                issued_r += nbytes
            executed[op.kind] = executed.get(op.kind, 0) + 1
            continue
        raise ReplayError("unknown replay op kind %r" % op.kind)
    for path in sorted(fds):
        yield from proc.close(fds[path])
    return RankReplayStats(
        rank=mpi.rank,
        bytes_written=written,
        bytes_read=read,
        issued_write_bytes=issued_w,
        issued_read_bytes=issued_r,
        ops=tuple(sorted(executed.items())),
        skipped=tuple(sorted(skipped.items())),
    )


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying a pseudo-application."""

    elapsed: float
    bytes_replayed: int
    job: JobResult
    timing: str = "preserve"
    #: Kernel events the replay testbed executed — the determinism
    #: fingerprint, also reported in the zoo matrix's ``replay_bench``.
    events_executed: int = 0

    @property
    def rank_stats(self) -> Tuple[RankReplayStats, ...]:
        return tuple(self.job.results)

    def op_counts(self) -> Dict[str, int]:
        """Executed script ops per kind, aggregated over ranks."""
        total: Dict[str, int] = {}
        for stats in self.job.results:
            for kind, n in stats.ops:
                total[kind] = total.get(kind, 0) + n
        return dict(sorted(total.items()))

    def skipped_counts(self) -> Dict[str, int]:
        """Script ops that could not execute, per kind, over all ranks."""
        total: Dict[str, int] = {}
        for stats in self.job.results:
            for kind, n in stats.skipped:
                total[kind] = total.get(kind, 0) + n
        return dict(sorted(total.items()))

    def issued_bytes(self) -> Dict[str, int]:
        """Requested payload bytes per direction, over all ranks."""
        return {
            "read": sum(s.issued_read_bytes for s in self.job.results),
            "write": sum(s.issued_write_bytes for s in self.job.results),
        }


def replay(
    app: PseudoApp,
    config: Optional[TestbedConfig] = None,
    seed: int = 0,
    honor_sync: bool = True,
    timing: str = "preserve",
) -> ReplayResult:
    """Run the pseudo-application on a fresh testbed.

    ``timing`` selects the documented policy: ``"preserve"`` charges
    every op's recorded think time (inter-arrival-preserving),
    ``"afap"`` drops them (as fast as possible).  See the module
    docstring for when each applies.

    When ``honor_sync`` is on, the rank scripts must agree on how many
    synchronization points they recorded: a partial capture (a crashed
    rank's truncated trace) would otherwise leave the surviving ranks
    blocked in a barrier the missing rank never reaches.  That case is
    detected *before* launch and reported as
    :class:`~repro.errors.ReplayDivergence` — replay reports divergence
    instead of hanging.
    """
    if timing not in TIMING_POLICIES:
        raise ReplayError(
            "unknown timing policy %r (known: %s)" % (timing, ", ".join(TIMING_POLICIES))
        )
    if honor_sync:
        sync_counts = {
            r: (
                sum(1 for op in app.scripts[r].ops if op.kind == "sync")
                if r in app.scripts
                else 0
            )
            for r in range(app.nprocs)
        }
        if len(set(sync_counts.values())) > 1:
            raise ReplayDivergence(sync_counts)
    tb = build_testbed(config, seed=seed)
    job = mpirun(
        tb.cluster,
        tb.vfs,
        _replay_rank,
        nprocs=app.nprocs,
        args={"pseudoapp": app, "honor_sync": honor_sync, "timing": timing},
    )
    return ReplayResult(
        elapsed=job.elapsed,
        bytes_replayed=sum(s.bytes_moved for s in job.results),
        job=job,
        timing=timing,
        events_executed=tb.sim.events_executed,
    )

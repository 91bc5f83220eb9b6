"""mpirun-style job launcher for the simulated cluster.

A *workload* is a generator function ``app(mpi, args)`` taking an
:class:`~repro.simmpi.comm.MPIRank` handle and an argument mapping.
:func:`mpirun` places one rank per node (round-robin when ranks exceed
nodes), wires up the communicator, runs every rank to completion, and
reports per-rank results plus the job's elapsed *true* time — the quantity
the paper's "elapsed time overhead" formula needs.

Tracing frameworks hook in through ``setup``/``teardown`` callbacks, which
receive each rank's :class:`~repro.simos.process.SimProcess` before the
application starts / after it ends — the moral equivalent of wrapping the
launch line with ``strace`` or pointing ``LD_PRELOAD`` at an interposition
library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.cluster.cluster import Cluster
from repro.errors import DeadlockError, MPIError, SimTimeoutError
from repro.simfs.vfs import VFS
from repro.simmpi.comm import Communicator, MPIRank
from repro.simos.process import SimProcess

__all__ = ["JobResult", "drive", "mpirun"]

AppFn = Callable[[MPIRank, Dict[str, Any]], Generator[Any, Any, Any]]
SetupFn = Callable[[int, SimProcess, MPIRank], None]


@dataclass
class JobResult:
    """Outcome of one simulated MPI job."""

    results: List[Any]
    start_time: float
    end_time: float
    rank_end_times: List[float] = field(default_factory=list)
    procs: List[SimProcess] = field(repr=False, default_factory=list)
    ranks: List[MPIRank] = field(repr=False, default_factory=list)
    comm: Optional[Communicator] = field(repr=False, default=None)
    #: The rank bodies' kernel processes, in rank order — the chaos harness
    #: inspects their completions to classify how a faulted job ended.
    des_processes: List[Any] = field(repr=False, default_factory=list)

    @property
    def elapsed(self) -> float:
        """True simulated wall-clock of the job (the ``time``-utility view)."""
        return self.end_time - self.start_time

    @property
    def nprocs(self) -> int:
        return len(self.results)


def mpirun(
    cluster: Cluster,
    vfs: VFS,
    app: AppFn,
    nprocs: Optional[int] = None,
    args: Optional[Dict[str, Any]] = None,
    uid: int = 1000,
    user: str = "jdoe",
    setup: Optional[SetupFn] = None,
    teardown: Optional[SetupFn] = None,
    base_pid: int = 10000,
    run: bool = True,
) -> JobResult:
    """Launch ``app`` on ``nprocs`` ranks and (by default) run to completion.

    Parameters mirror a batch launch: the cluster and mounted VFS are the
    machine, ``app`` is the executable, ``args`` its argv.  ``setup`` and
    ``teardown`` are tracing-framework attach points.  With ``run=False``
    the job is only spawned, and the caller ends it with :func:`drive`
    (or runs ``cluster.sim`` itself to co-schedule competing jobs).
    With ``run=True`` a failed job raises the exception :func:`drive`
    names as its cause.
    """
    n = nprocs if nprocs is not None else len(cluster.nodes)
    if n < 1:
        raise MPIError("nprocs must be >= 1")
    args = dict(args or {})
    sim = cluster.sim
    comm = Communicator(sim, cluster.network, n)

    procs: List[SimProcess] = []
    ranks: List[MPIRank] = []
    for r in range(n):
        node = cluster.nodes[r % len(cluster.nodes)]
        proc = SimProcess(
            sim, node, vfs, pid=base_pid + r, uid=uid, user=user, rank=r
        )
        procs.append(proc)
        ranks.append(MPIRank(comm, r, proc))

    if setup is not None:
        for r in range(n):
            setup(r, procs[r], ranks[r])

    start_time = sim.now
    end_times: List[float] = [start_time] * n
    results: List[Any] = [None] * n

    def rank_body(r: int):
        value = yield from app(ranks[r], args)
        results[r] = value
        end_times[r] = sim.now

    spawned = [sim.spawn(rank_body(r), name="rank%d" % r) for r in range(n)]

    # With a fault plane installed, register each rank's kernel process so
    # scheduled node crashes interrupt exactly the ranks placed there.
    plane = getattr(sim, "fault_plane", None)
    if plane is not None:
        for r in range(n):
            plane.track_rank(procs[r].node.index, spawned[r], r)

    result = JobResult(
        results=results,
        start_time=start_time,
        end_time=start_time,
        rank_end_times=end_times,
        procs=procs,
        ranks=ranks,
        comm=comm,
        des_processes=spawned,
    )
    if not run:
        return result

    cause = drive(result)
    if cause is not None:
        raise cause

    if teardown is not None:
        for r in range(n):
            teardown(r, procs[r], ranks[r])
    return result


def drive(job: JobResult, horizon: Optional[float] = None) -> Optional[BaseException]:
    """Run a spawned job's simulator until the job ends; return why it failed.

    The one rule for how a job ended.  A rank's own exception beats the
    :class:`DeadlockError` it leaves its peers blocked in; ranks still
    running when ``horizon`` (simulated seconds from job start) expires
    become :class:`SimTimeoutError`; a drained queue with no rank at
    fault is the deadlock itself.  ``None`` means every rank completed.
    Sets ``job.end_time``: the last rank's end on success, the
    simulator's clock at the failure otherwise.
    """
    sim = job.comm.sim
    cause: Optional[BaseException] = None
    try:
        # Whole-job drains are the simulator's hot loop; run_fast dispatches
        # the identical event history with the per-event backwards-time
        # check dropped after its warm-up window.
        sim.run_fast(until=(job.start_time + horizon) if horizon is not None else None)
    except DeadlockError as exc:
        cause = exc
    failed = [p.completion.exception for p in job.des_processes
              if p.completion.exception is not None]
    pending = [r for r, p in enumerate(job.des_processes) if p.alive]
    if failed:
        cause = failed[0]
    elif cause is None and pending:
        cause = SimTimeoutError(horizon or 0.0, pending)
    job.end_time = max(job.rank_end_times) if cause is None else sim.now
    return cause

"""Extension experiment: two-phase collective I/O vs independent writes.

Not a paper figure — the paper's mpich-1.2.6-era MPI-IO wrote each block
independently (seek+write), which is exactly why its Figure 2 pattern
(N-to-1 strided, small blocks) is so slow.  This ablation adds the ROMIO
two-phase optimization (``MPI_File_write_at_all``) and quantifies how
much of the strided penalty it removes, across block sizes.
"""

from repro.harness.figures import paper_testbed
from repro.harness.testbed import build_testbed
from repro.simmpi.mpiio import MPI_MODE_CREATE, MPI_MODE_WRONLY, MPIFile
from repro.simmpi.runtime import mpirun
from repro.units import KiB, MiB
from repro.workloads.patterns import AccessPattern, block_offset

NP = 16
TOTAL_PER_RANK = 8 * MiB


def _app(collective, nobj, bs):
    def app(mpi, args):
        f = yield from MPIFile.open(
            mpi, "/pfs/out", MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=True
        )
        if collective:
            extents = [
                (
                    block_offset(
                        AccessPattern.N_TO_1_STRIDED, mpi.rank, mpi.size, j, bs, nobj
                    ),
                    bs,
                )
                for j in range(nobj)
            ]
            yield from f.write_at_all(extents=extents)
        else:
            for j in range(nobj):
                off = block_offset(
                    AccessPattern.N_TO_1_STRIDED, mpi.rank, mpi.size, j, bs, nobj
                )
                yield from f.write_at(off, bs)
        yield from f.close()
        yield from mpi.barrier()
        return nobj * bs

    return app


def _elapsed(collective, bs):
    nobj = max(1, TOTAL_PER_RANK // bs)
    tb = build_testbed(paper_testbed(nprocs=NP))
    job = mpirun(
        tb.cluster, tb.vfs, _app(collective, nobj, bs), nprocs=NP, args={}
    )
    assert tb.pfs.ns.lookup("out").size == NP * nobj * bs
    return job.elapsed


def test_collective_buffering_ablation(once):
    def sweep():
        rows = {}
        for bs in (32 * KiB, 64 * KiB, 256 * KiB):
            rows[bs] = (_elapsed(False, bs), _elapsed(True, bs))
        return rows

    rows = once(sweep)
    print()
    print("%-10s %14s %14s %10s" % ("block", "independent", "write_at_all", "speedup"))
    for bs, (indep, coll) in rows.items():
        print(
            "%-10s %13.3fs %13.3fs %9.2fx"
            % ("%dKiB" % (bs // 1024), indep, coll, indep / coll)
        )

    # the optimization wins at small strided blocks...
    small_indep, small_coll = rows[32 * KiB]
    assert small_coll < 0.8 * small_indep
    # ...and the win shrinks as blocks grow (less to aggregate)
    speedups = [indep / coll for indep, coll in rows.values()]
    assert speedups[0] >= speedups[-1]

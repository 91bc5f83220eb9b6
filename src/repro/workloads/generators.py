"""Additional synthetic workloads beyond ``mpi_io_test``.

* :func:`io_intensive` — a Postmark-flavoured single-node create / write /
  read / stat / unlink mix, the style of benchmark the Tracefs authors
  used for their "less than 12.4%" overhead claim (§2.2);
* :func:`checkpoint` — compute phases alternating with N-to-1 write
  bursts, the archetypal LANL "killer app" I/O signature (§1);
* :func:`metadata_heavy` — create/stat/unlink storms (no payload), the
  regime where per-event tracing costs dominate completely;
* :func:`halo_exchange` — stencil-style neighbour exchange plus a
  checkpoint write: the communication+I/O mix message tracers care about;
* :func:`mmap_mix` — writes through ``mmap`` after a warm-up ``write``:
  the memory-mapped I/O that ptrace-level tracers cannot see but
  VFS-level tracing (Tracefs) records (§4.1.1 vs §4.2).

All take ``(mpi, args)`` like :func:`repro.workloads.mpi_io_test.mpi_io_test`
and run under :func:`repro.simmpi.runtime.mpirun`.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from repro.simfs.vfs import O_CREAT, O_RDONLY, O_WRONLY
from repro.simmpi.comm import MPIRank
from repro.units import KiB

__all__ = ["io_intensive", "checkpoint", "metadata_heavy", "halo_exchange", "mmap_mix"]


def io_intensive(mpi: MPIRank, args: Dict[str, Any]) -> Generator[Any, Any, Dict[str, int]]:
    """Create/write/read/stat/unlink over many small files.

    args: ``base`` (directory path), ``n_files``, ``file_size``,
    ``block_size``, ``keep`` (skip the unlink pass).
    """
    base = args.get("base", "/tmp/iointensive")
    n_files = int(args.get("n_files", 16))
    file_size = int(args.get("file_size", 256 * KiB))
    block_size = int(args.get("block_size", 64 * KiB))
    keep = bool(args.get("keep", False))
    proc = mpi.proc

    # mkdir -p: create every missing component (first rank wins on shared
    # directories, later EEXIST is fine).
    parts = base.strip("/").split("/")
    for depth in range(1, len(parts) + 1):
        prefix = "/" + "/".join(parts[:depth])
        try:
            yield from proc.mkdir(prefix)
        except Exception:
            pass

    written = read = 0
    for i in range(n_files):
        path = "%s/f%02d.%d" % (base, i, mpi.rank)
        fd = yield from proc.open(path, O_WRONLY | O_CREAT)
        pos = 0
        while pos < file_size:
            n = yield from proc.write(fd, min(block_size, file_size - pos))
            written += n
            pos += n
        yield from proc.close(fd)

        st = yield from proc.stat(path)
        assert st.size == file_size

        fd = yield from proc.open(path, O_RDONLY)
        pos = 0
        while pos < file_size:
            n = yield from proc.read(fd, min(block_size, file_size - pos))
            if n == 0:
                break
            read += n
            pos += n
        yield from proc.close(fd)

        if not keep:
            yield from proc.unlink(path)

    return {"bytes_written": written, "bytes_read": read, "n_files": n_files}


def checkpoint(mpi: MPIRank, args: Dict[str, Any]) -> Generator[Any, Any, Dict[str, int]]:
    """Alternating compute and N-to-1 checkpoint-write phases.

    args: ``path``, ``phases``, ``compute_time`` (per phase, seconds),
    ``block_size``, ``blocks_per_phase``.
    """
    from repro.simmpi.mpiio import MPIFile, MPI_MODE_CREATE, MPI_MODE_WRONLY

    path = args.get("path", "/pfs/checkpoint.dat")
    phases = int(args.get("phases", 3))
    compute_time = float(args.get("compute_time", 0.05))
    block_size = int(args.get("block_size", 256 * KiB))
    blocks = int(args.get("blocks_per_phase", 4))
    # Load imbalance: rank r computes (1 + r * imbalance) x the base time,
    # so barrier waits carry real weight (workload skew is the norm in
    # production codes, and it is what makes synchronization knowledge
    # matter for replay fidelity).
    imbalance = float(args.get("imbalance", 0.0))
    my_compute = compute_time * (1.0 + mpi.rank * imbalance)

    written = 0
    for phase in range(phases):
        # Compute phase: pure CPU (subject to tracer slowdown factor).
        yield from mpi.proc._charge(my_compute)
        yield from mpi.barrier()
        f = yield from MPIFile.open(
            mpi, "%s.%d" % (path, phase), MPI_MODE_WRONLY | MPI_MODE_CREATE,
            collective=True,
        )
        stride = mpi.size * block_size
        for b in range(blocks):
            offset = b * stride + mpi.rank * block_size
            written += yield from f.write_at(offset, block_size)
        yield from f.close()
        yield from mpi.barrier()
    return {"bytes_written": written, "phases": phases}


def metadata_heavy(mpi: MPIRank, args: Dict[str, Any]) -> Generator[Any, Any, Dict[str, int]]:
    """Create/stat/unlink storms with no data payload.

    args: ``base``, ``n_files``.
    """
    base = args.get("base", "/tmp/mdtest")
    n_files = int(args.get("n_files", 64))
    proc = mpi.proc
    try:
        yield from proc.mkdir(base)
    except Exception:
        pass
    for i in range(n_files):
        path = "%s/md.%d.%d" % (base, mpi.rank, i)
        fd = yield from proc.open(path, O_WRONLY | O_CREAT)
        yield from proc.close(fd)
        yield from proc.stat(path)
        yield from proc.unlink(path)
    return {"n_files": n_files}


def halo_exchange(mpi: MPIRank, args: Dict[str, Any]) -> Generator[Any, Any, Dict[str, int]]:
    """Stencil-style halo exchange: neighbours swap boundary data, then
    everyone checkpoints — the canonical communication+I/O mix.

    args: ``path``, ``iterations``, ``halo_bytes``, ``block_size``.
    Rank r exchanges with (r±1) mod size each iteration.
    """
    from repro.simmpi.mpiio import MPIFile, MPI_MODE_CREATE, MPI_MODE_WRONLY

    path = args.get("path", "/pfs/halo.out")
    iterations = int(args.get("iterations", 4))
    halo_bytes = int(args.get("halo_bytes", 64 * KiB))
    block_size = int(args.get("block_size", 128 * KiB))

    right = (mpi.rank + 1) % mpi.size
    left = (mpi.rank - 1) % mpi.size
    sent = 0
    for it in range(iterations):
        # send halos both ways, then receive both
        yield from mpi.send(right, ("halo", mpi.rank, it), tag=1, nbytes=halo_bytes)
        yield from mpi.send(left, ("halo", mpi.rank, it), tag=2, nbytes=halo_bytes)
        sent += 2 * halo_bytes
        yield from mpi.recv(source=left, tag=1)
        yield from mpi.recv(source=right, tag=2)
        yield from mpi.barrier()

    f = yield from MPIFile.open(
        mpi, path, MPI_MODE_WRONLY | MPI_MODE_CREATE, collective=True
    )
    written = yield from f.write_at(mpi.rank * block_size, block_size)
    yield from f.close()
    return {"bytes_sent": sent, "bytes_written": written}


def mmap_mix(mpi: MPIRank, args: Dict[str, Any]) -> Generator[Any, Any, Dict[str, int]]:
    """One visible ``write`` then many invisible ``mmap`` stores.

    args: ``path``, ``block_size``, ``n_mmap_writes``.
    Returns byte counts so tests can assert what each tracer should see.
    """
    path = args.get("path", "/tmp/mapped.dat")
    block_size = int(args.get("block_size", 64 * KiB))
    n_mmap = int(args.get("n_mmap_writes", 8))
    proc = mpi.proc

    fd = yield from proc.open("%s.%d" % (path, mpi.rank), O_WRONLY | O_CREAT)
    visible = yield from proc.write(fd, block_size)
    yield from proc.mmap(fd, (n_mmap + 1) * block_size)
    hidden = 0
    for i in range(n_mmap):
        hidden += yield from proc.mmap_write(fd, (i + 1) * block_size, block_size)
    yield from proc.close(fd)
    return {"visible_bytes": visible, "mmap_bytes": hidden}

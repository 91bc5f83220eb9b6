"""The op table's projections, pinned to their literal contents.

Every name set that says what a traced call is reads
:data:`repro.trace.events.OP_KINDS`.  Pinning each projection here makes
an edit of the table show up as a reviewed diff of what each of its
readers sees.
"""

import pytest

from repro.analysis import dependencies, iostat, phases
from repro.obs.critpath import DATA_SYSCALLS
from repro.replay import fidelity
from repro.trace.events import IO_DATA_SYSCALLS, SYNC_CALLS

SYSCALL_RW = {"SYS_read", "SYS_write", "SYS_pread64", "SYS_pwrite64"}

PROJECTIONS = {
    "io-data-syscalls": (IO_DATA_SYSCALLS, SYSCALL_RW),
    "critpath-data-syscalls": (DATA_SYSCALLS, SYSCALL_RW | {"SYS_fsync"}),
    "iostat-data-calls": (iostat._DATA_CALLS, SYSCALL_RW | {"vfs_read", "vfs_write"}),
    "phases-data-calls": (
        phases._DATA_CALLS,
        SYSCALL_RW | {"vfs_read", "vfs_write", "MPI_File_write_at",
                      "MPI_File_iwrite_at", "MPI_File_read_at"},
    ),
    "dependencies-writes": (
        dependencies._WRITES,
        {"SYS_write", "SYS_pwrite64", "vfs_write", "MPI_File_write_at",
         "MPI_File_iwrite_at"},
    ),
    "dependencies-reads": (
        dependencies._READS,
        {"SYS_read", "SYS_pread64", "vfs_read", "MPI_File_read_at"},
    ),
    "fidelity-call-classes": (
        fidelity._CALL_CLASS,
        {
            "SYS_write": "write", "SYS_pwrite64": "write", "vfs_write": "write",
            "SYS_read": "read", "SYS_pread64": "read", "vfs_read": "read",
            "SYS_open": "metadata", "SYS_close": "metadata",
            "SYS_fsync": "metadata", "SYS_stat64": "metadata",
            "SYS_fstat64": "metadata", "SYS_unlink": "metadata",
            "SYS_mkdir": "metadata", "vfs_open": "metadata",
            "vfs_fsync": "metadata",
        },
    ),
    "sync-calls": (
        SYNC_CALLS,
        {"MPI_Barrier", "MPI_Bcast", "MPI_Allreduce", "MPI_Allgather", "MPI_Gather"},
    ),
}


@pytest.mark.parametrize("name", sorted(PROJECTIONS))
def test_projection_contents(name):
    projection, expected = PROJECTIONS[name]
    assert projection == expected

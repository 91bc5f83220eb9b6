"""Syscall naming and argument formatting.

Simulated traces mimic the paper's Figure 1 raw output, where system calls
appear with an ``SYS_`` prefix and Linux-2.6-era names::

    10:59:47.093718 SYS_statfs64(0x80675c0, 84, ...) = 0 <0.011131>
    10:59:47.105818 SYS_open("/etc/hosts", 0, 0666)  = 3 <0.000034>
    10:59:47.105913 SYS_fcntl64(3, 1, 0, 0, 0xbd3ff4) = 0 <0.000017>

These helpers centralize the spelling so traces, codecs, summaries, and
replayers all agree on names; what each call *is* (its replay op kind,
and so whether it moves payload bytes) is the op table in
:mod:`repro.trace.events`.
"""

from __future__ import annotations

from repro.simfs.vfs import (
    O_APPEND,
    O_CREAT,
    O_EXCL,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
)

__all__ = [
    "SYS_OPEN",
    "SYS_CLOSE",
    "SYS_READ",
    "SYS_WRITE",
    "SYS_PREAD",
    "SYS_PWRITE",
    "SYS_LSEEK",
    "SYS_STAT",
    "SYS_FSTAT",
    "SYS_UNLINK",
    "SYS_MKDIR",
    "SYS_READDIR",
    "SYS_RENAME",
    "SYS_STATFS",
    "SYS_FSYNC",
    "SYS_FCNTL",
    "SYS_MMAP",
    "ALL_SYSCALLS",
    "format_open_flags",
]

SYS_OPEN = "SYS_open"
SYS_CLOSE = "SYS_close"
SYS_READ = "SYS_read"
SYS_WRITE = "SYS_write"
SYS_PREAD = "SYS_pread64"
SYS_PWRITE = "SYS_pwrite64"
SYS_LSEEK = "SYS__llseek"
SYS_STAT = "SYS_stat64"
SYS_FSTAT = "SYS_fstat64"
SYS_UNLINK = "SYS_unlink"
SYS_MKDIR = "SYS_mkdir"
SYS_READDIR = "SYS_getdents64"
SYS_RENAME = "SYS_rename"
SYS_STATFS = "SYS_statfs64"
SYS_FSYNC = "SYS_fsync"
SYS_FCNTL = "SYS_fcntl64"
SYS_MMAP = "SYS_mmap2"

ALL_SYSCALLS = frozenset(
    {
        SYS_OPEN,
        SYS_CLOSE,
        SYS_READ,
        SYS_WRITE,
        SYS_PREAD,
        SYS_PWRITE,
        SYS_LSEEK,
        SYS_STAT,
        SYS_FSTAT,
        SYS_UNLINK,
        SYS_MKDIR,
        SYS_READDIR,
        SYS_RENAME,
        SYS_STATFS,
        SYS_FSYNC,
        SYS_FCNTL,
        SYS_MMAP,
    }
)

_FLAG_NAMES = [
    (O_CREAT, "O_CREAT"),
    (O_EXCL, "O_EXCL"),
    (O_TRUNC, "O_TRUNC"),
    (O_APPEND, "O_APPEND"),
]


def format_open_flags(flags: int) -> str:
    """Render open(2) flags symbolically, e.g. ``'O_WRONLY|O_CREAT'``."""
    acc = flags & 0o3
    parts = [
        {O_RDONLY: "O_RDONLY", O_WRONLY: "O_WRONLY", O_RDWR: "O_RDWR"}.get(
            acc, "O_ACC%d" % acc
        )
    ]
    for bit, label in _FLAG_NAMES:
        if flags & bit:
            parts.append(label)
    return "|".join(parts)

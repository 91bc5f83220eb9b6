"""Syscall naming/formatting helper tests."""

from repro.simfs.vfs import O_APPEND, O_CREAT, O_EXCL, O_RDONLY, O_RDWR, O_TRUNC, O_WRONLY
from repro.simos import syscalls as sc
from repro.trace.events import IO_DATA_SYSCALLS, OP_KINDS, EventLayer


def test_figure1_spellings():
    # These exact names appear in the paper's Figure 1 raw trace.
    assert sc.SYS_OPEN == "SYS_open"
    assert sc.SYS_STATFS == "SYS_statfs64"
    assert sc.SYS_FCNTL == "SYS_fcntl64"
    assert sc.SYS_READ == "SYS_read"


def test_all_syscalls_is_complete():
    for name in dir(sc):
        if name.startswith("SYS_") and name.isupper():
            assert getattr(sc, name) in sc.ALL_SYSCALLS


def test_io_data_subset():
    assert IO_DATA_SYSCALLS <= sc.ALL_SYSCALLS
    assert sc.SYS_WRITE in IO_DATA_SYSCALLS
    assert sc.SYS_OPEN not in IO_DATA_SYSCALLS
    # Every syscall the op table names is one the simulated OS has.
    assert set(OP_KINDS[EventLayer.SYSCALL]) <= sc.ALL_SYSCALLS


class TestFormatOpenFlags:
    def test_access_modes(self):
        assert sc.format_open_flags(O_RDONLY) == "O_RDONLY"
        assert sc.format_open_flags(O_WRONLY) == "O_WRONLY"
        assert sc.format_open_flags(O_RDWR) == "O_RDWR"

    def test_combined_flags(self):
        rendered = sc.format_open_flags(O_WRONLY | O_CREAT | O_TRUNC)
        assert rendered == "O_WRONLY|O_CREAT|O_TRUNC"

    def test_all_bits(self):
        rendered = sc.format_open_flags(O_RDWR | O_CREAT | O_EXCL | O_APPEND)
        for part in ("O_RDWR", "O_CREAT", "O_EXCL", "O_APPEND"):
            assert part in rendered

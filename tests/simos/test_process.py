"""SimProcess syscall interface tests."""

import pytest

from repro.cluster.cluster import Cluster
from repro.errors import BadFileDescriptor, FileNotFound, InvalidArgument, NotMounted
from repro.machine import ClusterConfig
from repro.simfs.localfs import LocalFS
from repro.simfs.vfs import O_APPEND, O_CREAT, O_RDONLY, O_RDWR, O_WRONLY, VFS
from repro.simos.process import SEEK_CUR, SEEK_END, SEEK_SET, SimProcess


def make_env(n_nodes=1):
    cluster = Cluster(
        ClusterConfig(n_nodes=n_nodes, clock_skew_stddev=0, clock_drift_stddev=0)
    )
    vfs = VFS(cluster.sim)
    vfs.mount("/", LocalFS(cluster.sim))
    proc = SimProcess(cluster.sim, cluster.node(0), vfs, pid=100)
    return cluster.sim, proc


class TestFdTable:
    def test_open_returns_increasing_fds_from_3(self):
        sim, proc = make_env()

        def body():
            a = yield from proc.open("/a", O_WRONLY | O_CREAT)
            b = yield from proc.open("/b", O_WRONLY | O_CREAT)
            return a, b

        assert sim.run_process(body()) == (3, 4)

    def test_close_invalidates_fd(self):
        sim, proc = make_env()

        def body():
            fd = yield from proc.open("/a", O_WRONLY | O_CREAT)
            yield from proc.close(fd)
            try:
                yield from proc.write(fd, 10)
            except BadFileDescriptor:
                return "EBADF"

        assert sim.run_process(body()) == "EBADF"

    def test_double_close_is_ebadf(self):
        sim, proc = make_env()

        def body():
            fd = yield from proc.open("/a", O_WRONLY | O_CREAT)
            yield from proc.close(fd)
            try:
                yield from proc.close(fd)
            except BadFileDescriptor:
                return "EBADF"

        assert sim.run_process(body()) == "EBADF"


class TestReadWrite:
    def test_write_advances_position(self):
        sim, proc = make_env()

        def body():
            fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
            yield from proc.write(fd, 100)
            yield from proc.write(fd, 100)
            st = yield from proc.fstat(fd)
            return st.size

        assert sim.run_process(body()) == 200

    def test_pwrite_does_not_move_position(self):
        sim, proc = make_env()

        def body():
            fd = yield from proc.open("/f", O_RDWR | O_CREAT)
            yield from proc.pwrite(fd, 100, 1000)
            yield from proc.write(fd, 50)  # at position 0
            st = yield from proc.fstat(fd)
            return st.size

        assert sim.run_process(body()) == 1100

    def test_read_respects_eof_and_position(self):
        sim, proc = make_env()

        def body():
            fd = yield from proc.open("/f", O_RDWR | O_CREAT)
            yield from proc.write(fd, 100)
            yield from proc.lseek(fd, 0, SEEK_SET)
            a = yield from proc.read(fd, 60)
            b = yield from proc.read(fd, 60)
            c = yield from proc.read(fd, 60)
            return a, b, c

        assert sim.run_process(body()) == (60, 40, 0)

    def test_write_to_readonly_fd_rejected(self):
        sim, proc = make_env()

        def body():
            fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
            yield from proc.close(fd)
            fd = yield from proc.open("/f", O_RDONLY)
            try:
                yield from proc.write(fd, 10)
            except BadFileDescriptor:
                return "rejected"

        assert sim.run_process(body()) == "rejected"

    def test_append_mode_writes_at_end(self):
        sim, proc = make_env()

        def body():
            fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
            yield from proc.write(fd, 100)
            yield from proc.close(fd)
            fd = yield from proc.open("/f", O_WRONLY | O_APPEND)
            yield from proc.write(fd, 10)
            st = yield from proc.fstat(fd)
            return st.size

        assert sim.run_process(body()) == 110


class TestLseek:
    def test_whence_modes(self):
        sim, proc = make_env()

        def body():
            fd = yield from proc.open("/f", O_RDWR | O_CREAT)
            yield from proc.write(fd, 100)
            end = yield from proc.lseek(fd, 0, SEEK_END)
            back = yield from proc.lseek(fd, -10, SEEK_CUR)
            absolute = yield from proc.lseek(fd, 5, SEEK_SET)
            return end, back, absolute

        assert sim.run_process(body()) == (100, 90, 5)

    def test_seek_before_start_rejected(self):
        sim, proc = make_env()

        def body():
            fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
            try:
                yield from proc.lseek(fd, -1, SEEK_SET)
            except InvalidArgument:
                return "EINVAL"

        assert sim.run_process(body()) == "EINVAL"


class TestMetadataSyscalls:
    def test_stat_unlink_mkdir_readdir_rename(self):
        sim, proc = make_env()

        def body():
            yield from proc.mkdir("/d")
            fd = yield from proc.open("/d/x", O_WRONLY | O_CREAT)
            yield from proc.close(fd)
            st = yield from proc.stat("/d/x")
            names = yield from proc.readdir("/d")
            yield from proc.rename("/d/x", "/d/y")
            names2 = yield from proc.readdir("/d")
            yield from proc.unlink("/d/y")
            names3 = yield from proc.readdir("/d")
            return st.size, names, names2, names3

        assert sim.run_process(body()) == (0, ["x"], ["y"], [])

    def test_statfs_and_fcntl(self):
        sim, proc = make_env()

        def body():
            out = yield from proc.statfs("/")
            fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
            rc = yield from proc.fcntl(fd, 1)
            return out["files"], rc

        files, rc = sim.run_process(body())
        assert files >= 1 and rc == 0

    def test_stat_missing_file(self):
        sim, proc = make_env()

        def body():
            try:
                yield from proc.stat("/missing")
            except FileNotFound:
                return "ENOENT"

        assert sim.run_process(body()) == "ENOENT"

    def test_unmounted_path_surfaces_as_simos_error(self):
        sim, proc = make_env()
        proc.vfs.unmount("/")

        def body():
            try:
                yield from proc.open("/f", O_WRONLY | O_CREAT)
            except NotMounted:
                return "ENODEV"

        assert sim.run_process(body()) == "ENODEV"


class TestSyscallAccounting:
    def test_syscall_count_increments(self):
        sim, proc = make_env()

        def body():
            fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
            yield from proc.write(fd, 10)
            yield from proc.close(fd)

        sim.run_process(body())
        assert proc.syscall_count == 3

    def test_syscalls_cost_time(self):
        sim, proc = make_env()

        def body():
            t0 = sim.now
            fd = yield from proc.open("/f", O_WRONLY | O_CREAT)
            return sim.now - t0

        assert sim.run_process(body()) > 0

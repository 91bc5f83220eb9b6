"""VFS namespace, mount-table, and permission tests."""

import pytest

from repro.des.simulator import Simulator
from repro.errors import (
    BadFileDescriptor,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    NotMounted,
    PermissionDenied,
)
from repro.simfs.vfs import (
    O_CREAT,
    O_EXCL,
    O_RDONLY,
    O_TRUNC,
    O_WRONLY,
    VFS,
    CallerContext,
    FileSystem,
    Namespace,
)


class FakeNode:
    index = 0
    hostname = "test"

    def now_local(self):
        return 0.0


def ctx(uid=1000):
    return CallerContext(node=FakeNode(), pid=1, uid=uid, user="tester")


class TestNamespace:
    def test_create_and_lookup(self):
        ns = Namespace()
        inode = ns.create("a.txt", 0o644, 1000, now=1.0)
        assert ns.lookup("a.txt") is inode
        assert ns.by_ino(inode.ino) is inode

    def test_nested_paths_require_directories(self):
        ns = Namespace()
        ns.create("dir", 0o755, 1000, 0.0, is_dir=True)
        f = ns.create("dir/file", 0o644, 1000, 0.0)
        assert ns.lookup("dir/file") is f

    def test_lookup_missing_raises(self):
        ns = Namespace()
        with pytest.raises(FileNotFound):
            ns.lookup("nope")

    def test_file_as_directory_component(self):
        ns = Namespace()
        ns.create("f", 0o644, 1000, 0.0)
        with pytest.raises(NotADirectory):
            ns.lookup("f/child")

    def test_exclusive_create_conflict(self):
        ns = Namespace()
        ns.create("x", 0o644, 1000, 0.0)
        with pytest.raises(FileExists):
            ns.create("x", 0o644, 1000, 0.0, exclusive=True)

    def test_unlink_removes(self):
        ns = Namespace()
        ns.create("x", 0o644, 1000, 0.0)
        ns.unlink("x", 1.0)
        with pytest.raises(FileNotFound):
            ns.lookup("x")

    def test_unlink_nonempty_dir_rejected(self):
        ns = Namespace()
        ns.create("d", 0o755, 1000, 0.0, is_dir=True)
        ns.create("d/f", 0o644, 1000, 0.0)
        with pytest.raises(InvalidArgument):
            ns.unlink("d", 1.0)

    def test_readdir_sorted(self):
        ns = Namespace()
        ns.create("d", 0o755, 1000, 0.0, is_dir=True)
        for name in ("zz", "aa", "mm"):
            ns.create("d/%s" % name, 0o644, 1000, 0.0)
        assert ns.readdir("d") == ["aa", "mm", "zz"]
        with pytest.raises(NotADirectory):
            ns.readdir("d/aa")

    def test_rename_moves_inode(self):
        ns = Namespace()
        f = ns.create("old", 0o644, 1000, 0.0)
        ns.rename("old", "new", 1.0)
        assert ns.lookup("new") is f
        with pytest.raises(FileNotFound):
            ns.lookup("old")

    def test_dotdot_rejected(self):
        ns = Namespace()
        with pytest.raises(InvalidArgument):
            ns.lookup("a/../b")


class TestFileSystemOps:
    def run_op(self, gen):
        sim = Simulator()
        return sim.run_process(gen)

    def make_fs(self):
        return FileSystem(Simulator())

    def test_open_create_write_stat(self):
        sim = Simulator()
        fs = FileSystem(sim)

        def body():
            ino = yield from fs.op_open(ctx(), "f", O_WRONLY | O_CREAT)
            n = yield from fs.op_write(ctx(), ino, 0, 100, stream="s")
            st = yield from fs.op_stat(ctx(), "f")
            return n, st.size

        assert sim.run_process(body()) == (100, 100)

    def test_sparse_write_extends_size(self):
        sim = Simulator()
        fs = FileSystem(sim)

        def body():
            ino = yield from fs.op_open(ctx(), "f", O_WRONLY | O_CREAT)
            yield from fs.op_write(ctx(), ino, 1000, 24, stream="s")
            st = yield from fs.op_fstat(ctx(), ino)
            return st.size

        assert sim.run_process(body()) == 1024

    def test_read_stops_at_eof(self):
        sim = Simulator()
        fs = FileSystem(sim)

        def body():
            ino = yield from fs.op_open(ctx(), "f", O_WRONLY | O_CREAT)
            yield from fs.op_write(ctx(), ino, 0, 100, stream="s")
            full = yield from fs.op_read(ctx(), ino, 0, 100, stream="s")
            partial = yield from fs.op_read(ctx(), ino, 80, 100, stream="s")
            empty = yield from fs.op_read(ctx(), ino, 200, 10, stream="s")
            return full, partial, empty

        assert sim.run_process(body()) == (100, 20, 0)

    def test_truncate_and_o_trunc(self):
        sim = Simulator()
        fs = FileSystem(sim)

        def body():
            ino = yield from fs.op_open(ctx(), "f", O_WRONLY | O_CREAT)
            yield from fs.op_write(ctx(), ino, 0, 500, stream="s")
            yield from fs.op_truncate(ctx(), ino, 100)
            mid = (yield from fs.op_fstat(ctx(), ino)).size
            ino2 = yield from fs.op_open(ctx(), "f", O_WRONLY | O_TRUNC)
            final = (yield from fs.op_fstat(ctx(), ino2)).size
            return mid, final

        assert sim.run_process(body()) == (100, 0)

    def test_open_excl_existing_fails(self):
        sim = Simulator()
        fs = FileSystem(sim)

        def body():
            yield from fs.op_open(ctx(), "f", O_WRONLY | O_CREAT)
            yield from fs.op_open(ctx(), "f", O_WRONLY | O_CREAT | O_EXCL)

        proc = sim.spawn(body(), name="p")
        sim.run()
        assert isinstance(proc.completion.exception, FileExists)

    def test_write_permission_checked(self):
        sim = Simulator()
        fs = FileSystem(sim)

        def body():
            # owner uid 1000 creates read-only file
            yield from fs.op_open(ctx(uid=1000), "f", O_WRONLY | O_CREAT, mode=0o444)
            # even the owner cannot open it for writing
            yield from fs.op_open(ctx(uid=1000), "f", O_WRONLY)

        proc = sim.spawn(body(), name="p")
        sim.run()
        assert isinstance(proc.completion.exception, PermissionDenied)

    def test_root_bypasses_permissions(self):
        sim = Simulator()
        fs = FileSystem(sim)

        def body():
            yield from fs.op_open(ctx(uid=1000), "f", O_WRONLY | O_CREAT, mode=0o400)
            ino = yield from fs.op_open(ctx(uid=0), "f", O_WRONLY)
            return ino

        assert sim.run_process(body()) > 0

    def test_other_user_respects_other_bits(self):
        sim = Simulator()
        fs = FileSystem(sim)

        def body():
            yield from fs.op_open(ctx(uid=1000), "private", O_WRONLY | O_CREAT, mode=0o600)
            yield from fs.op_open(ctx(uid=2000), "private", O_RDONLY)

        proc = sim.spawn(body(), name="p")
        sim.run()
        assert isinstance(proc.completion.exception, PermissionDenied)

    def test_directory_write_rejected(self):
        sim = Simulator()
        fs = FileSystem(sim)

        def body():
            yield from fs.op_mkdir(ctx(), "d")
            yield from fs.op_open(ctx(), "d", O_WRONLY)

        proc = sim.spawn(body(), name="p")
        sim.run()
        assert isinstance(proc.completion.exception, IsADirectory)

    def test_statfs_counts(self):
        sim = Simulator()
        fs = FileSystem(sim)

        def body():
            ino = yield from fs.op_open(ctx(), "f", O_WRONLY | O_CREAT)
            yield from fs.op_write(ctx(), ino, 0, 4096, stream="s")
            return (yield from fs.op_statfs(ctx()))

        out = sim.run_process(body())
        assert out["bytes_used"] == 4096
        assert out["files"] >= 2  # root + file


class TestVFSMounts:
    def test_longest_prefix_wins(self):
        sim = Simulator()
        vfs = VFS(sim)
        outer, inner = FileSystem(sim, "outer"), FileSystem(sim, "inner")
        vfs.mount("/data", outer)
        vfs.mount("/data/fast", inner)
        fs, rel = vfs.resolve("/data/fast/file")
        assert fs is inner and rel == "file"
        fs, rel = vfs.resolve("/data/slow/file")
        assert fs is outer and rel == "slow/file"

    def test_exact_mount_point(self):
        sim = Simulator()
        vfs = VFS(sim)
        fs = FileSystem(sim)
        vfs.mount("/m", fs)
        got, rel = vfs.resolve("/m")
        assert got is fs and rel == ""

    def test_unmounted_path_raises(self):
        sim = Simulator()
        vfs = VFS(sim)
        with pytest.raises(NotMounted):
            vfs.resolve("/nowhere")

    def test_unmount_returns_fs(self):
        sim = Simulator()
        vfs = VFS(sim)
        fs = FileSystem(sim)
        vfs.mount("/m", fs)
        assert vfs.unmount("/m") is fs
        with pytest.raises(NotMounted):
            vfs.unmount("/m")

    def test_relative_paths_rejected(self):
        sim = Simulator()
        vfs = VFS(sim)
        with pytest.raises(InvalidArgument):
            vfs.resolve("relative/path")

    def test_shadow_mount_and_restore(self):
        """Mounting over a prefix shadows it (the Tracefs interposition)."""
        sim = Simulator()
        vfs = VFS(sim)
        lower, upper = FileSystem(sim, "lower"), FileSystem(sim, "upper")
        vfs.mount("/m", lower)
        vfs.mount("/m", upper)
        assert vfs.resolve("/m/x")[0] is upper
        vfs.unmount("/m")
        with pytest.raises(NotMounted):
            vfs.resolve("/m/x")

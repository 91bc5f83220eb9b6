"""Stackable-FS transparency and hook tests."""

import pytest

from repro.des.simulator import Simulator
from repro.simfs.localfs import LocalFS
from repro.simfs.stackable import StackableFS
from repro.simfs.vfs import CallerContext, O_CREAT, O_RDONLY, O_WRONLY, VFS


class FakeNode:
    index = 0
    hostname = "n0"

    def now_local(self):
        return 0.0


def ctx():
    return CallerContext(node=FakeNode(), pid=1, uid=1000, user="t")


class RecordingLayer(StackableFS):
    """Test double: records hook invocations and charges fixed time."""

    def __init__(self, sim, lower, cost=1e-3):
        super().__init__(sim, lower)
        self.calls = []
        self.cost = cost

    def before_op(self, ctx, op, args):
        self.calls.append(("before", op))
        yield self.sim.timeout(self.cost)

    def after_op(self, ctx, op, args, result, duration):
        self.calls.append(("after", op, result))
        yield self.sim.timeout(self.cost)


def make_stack():
    sim = Simulator()
    lower = LocalFS(sim, name="lower")
    layer = RecordingLayer(sim, lower)
    return sim, lower, layer


def test_namespace_delegates_to_lower():
    sim, lower, layer = make_stack()
    assert layer.ns is lower.ns


def test_operations_pass_through_with_hooks():
    sim, lower, layer = make_stack()

    def body():
        ino = yield from layer.op_open(ctx(), "f", O_WRONLY | O_CREAT)
        yield from layer.op_write(ctx(), ino, 0, 100, stream="s")
        n = yield from layer.op_read(ctx(), ino, 0, 100, stream="s")
        return n

    assert sim.run_process(body()) == 100
    ops = [c[1] for c in layer.calls if c[0] == "before"]
    assert ops == ["open", "write", "read"]
    # lower namespace actually mutated
    assert lower.ns.lookup("f").size == 100


def test_layer_charges_time():
    sim, lower, layer = make_stack()

    def body():
        t0 = sim.now
        yield from layer.op_mkdir(ctx(), "d")
        return sim.now - t0

    with_layer = sim.run_process(body())

    sim2 = Simulator()
    lower2 = LocalFS(sim2)

    def body2():
        t0 = sim2.now
        yield from lower2.op_mkdir(ctx(), "d")
        return sim2.now - t0

    without = sim2.run_process(body2())
    assert with_layer == pytest.approx(without + 2e-3)


def test_after_hook_sees_result_and_duration():
    sim, lower, layer = make_stack()

    def body():
        ino = yield from layer.op_open(ctx(), "f", O_WRONLY | O_CREAT)
        yield from layer.op_write(ctx(), ino, 0, 42, stream="s")

    sim.run_process(body())
    after_write = [c for c in layer.calls if c[0] == "after" and c[1] == "write"]
    assert after_write == [("after", "write", 42)]


def test_mount_interposition_is_transparent_to_paths():
    sim = Simulator()
    vfs = VFS(sim)
    lower = LocalFS(sim)
    vfs.mount("/data", lower)

    def create_body():
        fs, rel = vfs.resolve("/data/hello")
        yield from fs.op_open(ctx(), rel, O_WRONLY | O_CREAT)

    sim.run_process(create_body())

    # interpose the layer over the same mount
    vfs.unmount("/data")
    layer = RecordingLayer(sim, lower)
    vfs.mount("/data", layer)

    def stat_body():
        fs, rel = vfs.resolve("/data/hello")
        st = yield from fs.op_stat(ctx(), rel)
        return st.ino

    assert sim.run_process(stat_body()) > 0
    assert ("before", "stat") in layer.calls


def test_all_forwarded_operations():
    """Every op in the protocol is forwarded (guards against drift)."""
    sim, lower, layer = make_stack()

    def body():
        yield from layer.op_mkdir(ctx(), "d")
        ino = yield from layer.op_open(ctx(), "d/f", O_WRONLY | O_CREAT)
        yield from layer.op_write(ctx(), ino, 0, 10, stream="s")
        yield from layer.op_fstat(ctx(), ino)
        yield from layer.op_truncate(ctx(), ino, 5)
        yield from layer.op_fsync(ctx(), ino)
        yield from layer.op_stat(ctx(), "d/f")
        yield from layer.op_readdir(ctx(), "d")
        yield from layer.op_rename(ctx(), "d/f", "d/g")
        yield from layer.op_statfs(ctx())
        yield from layer.op_unlink(ctx(), "d/g")

    sim.run_process(body())
    ops = {c[1] for c in layer.calls}
    assert ops == {
        "mkdir", "open", "write", "fstat", "truncate", "fsync",
        "stat", "readdir", "rename", "statfs", "unlink",
    }


def test_parallel_compatibility_mirrors_lower():
    sim = Simulator()
    lower = LocalFS(sim)  # not parallel compatible
    layer = StackableFS(sim, lower)
    assert layer.parallel_compatible == lower.parallel_compatible

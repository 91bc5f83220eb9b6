"""Block-device timing model tests."""

import pytest

from repro.des.simulator import Simulator
from repro.machine import DiskParams
from repro.simfs.blockdev import BlockDevice
from repro.units import MiB


def test_params_validation():
    with pytest.raises(ValueError):
        DiskParams(seek_time=-1)
    with pytest.raises(ValueError):
        DiskParams(stream_bandwidth=0)


def test_service_time_components():
    p = DiskParams(seek_time=8e-3, settle_time=2e-3, stream_bandwidth=60 * MiB)
    seq = p.service_time(60 * MiB, sequential=True)
    rand = p.service_time(60 * MiB, sequential=False)
    assert seq == pytest.approx(1.0 + 2e-3)
    assert rand == pytest.approx(1.0 + 2e-3 + 8e-3)


def test_sequential_stream_detection():
    sim = Simulator()
    dev = BlockDevice(sim, DiskParams())
    times = []

    def body():
        t = yield from dev.service("streamA", 0, 4096)
        times.append(t)
        t = yield from dev.service("streamA", 4096, 4096)  # continues
        times.append(t)
        t = yield from dev.service("streamA", 100000, 4096)  # jumps
        times.append(t)

    sim.run_process(body())
    assert times[0] > times[1]  # first access seeks, continuation does not
    assert times[2] == pytest.approx(times[0])  # jump seeks again
    assert dev.seeks == 2
    assert dev.ops_served == 3
    assert dev.bytes_served == 3 * 4096


def test_streams_are_independent():
    sim = Simulator()
    dev = BlockDevice(sim, DiskParams())

    def body():
        yield from dev.service(("f1", 0), 0, 4096)
        yield from dev.service(("f2", 1), 0, 4096)  # different stream: seek
        yield from dev.service(("f1", 0), 4096, 4096)  # f1 continues: no seek

    sim.run_process(body())
    assert dev.seeks == 2


def test_disk_serializes_requests():
    sim = Simulator()
    dev = BlockDevice(sim, DiskParams(seek_time=0, settle_time=0.5, stream_bandwidth=60 * MiB))
    ends = []

    def client(name):
        yield from dev.service(name, 0, 0)
        ends.append(sim.now)

    sim.spawn(client("a"), name="a")
    sim.spawn(client("b"), name="b")
    sim.run()
    assert ends == [pytest.approx(0.5), pytest.approx(1.0)]

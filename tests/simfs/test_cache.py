"""Caching layer tests: hits, eviction, write policies, consistency."""

import pytest

from repro.des.simulator import Simulator
from repro.errors import InvalidArgument
from repro.simfs.cache import CacheParams, CachingFS
from repro.simfs.localfs import LocalFS
from repro.simfs.vfs import CallerContext, O_CREAT, O_RDWR
from repro.units import KiB


class FakeNode:
    index = 0
    hostname = "n0"

    def now_local(self):
        return 0.0


def ctx():
    return CallerContext(node=FakeNode(), pid=1, uid=1000, user="t")


def make(write_back=False, capacity=8 * 64 * KiB):
    sim = Simulator()
    lower = LocalFS(sim)
    cache = CachingFS(
        sim, lower,
        CacheParams(capacity=capacity, block_size=64 * KiB, write_back=write_back),
    )
    return sim, lower, cache


def write_file(sim, fs, nbytes, name="f"):
    def body():
        ino = yield from fs.op_open(ctx(), name, O_RDWR | O_CREAT)
        yield from fs.op_write(ctx(), ino, 0, nbytes, stream="s")
        return ino

    return sim.run_process(body())


def write_file_cold(sim, lower, nbytes, name="f"):
    """Create the file *below* the cache so first reads are cold."""
    return write_file(sim, lower, nbytes, name)


class TestValidation:
    def test_params(self):
        with pytest.raises(InvalidArgument):
            CacheParams(capacity=0)
        with pytest.raises(InvalidArgument):
            CacheParams(capacity=1024, block_size=4096)


class TestReadCaching:
    def test_second_read_hits(self):
        sim, lower, cache = make()
        ino = write_file_cold(sim, lower, 128 * KiB)

        def body():
            t0 = sim.now
            yield from cache.op_read(ctx(), ino, 0, 128 * KiB, stream="s")
            cold = sim.now - t0
            t0 = sim.now
            yield from cache.op_read(ctx(), ino, 0, 128 * KiB, stream="s")
            warm = sim.now - t0
            return cold, warm

        cold, warm = sim.run_process(body())
        assert warm < cold / 5
        assert cache.misses == 2  # first read faulted both blocks in
        assert cache.hits == 2  # second read served from cache
        assert cache.stats()["hit_rate"] == 0.5

    def test_read_result_respects_eof(self):
        sim, lower, cache = make()
        ino = write_file(sim, cache, 100)

        def body():
            n = yield from cache.op_read(ctx(), ino, 50, 1000, stream="s")
            n2 = yield from cache.op_read(ctx(), ino, 500, 10, stream="s")
            return n, n2

        assert sim.run_process(body()) == (50, 0)

    def test_lru_eviction(self):
        sim, lower, cache = make(capacity=2 * 64 * KiB)
        ino = write_file_cold(sim, lower, 4 * 64 * KiB)  # 4 blocks, 2-block cache

        def body():
            # touch blocks 0..3 in order; cache holds only 2
            for b in range(4):
                yield from cache.op_read(ctx(), ino, b * 64 * KiB, 64 * KiB, stream="s")
            # block 0 must have been evicted by now
            return (ino, 0) in cache._blocks, (ino, 3) in cache._blocks

        b0_cached, b3_cached = sim.run_process(body())
        assert not b0_cached and b3_cached
        assert cache.evictions > 0


class TestWritePolicies:
    def test_write_through_reaches_lower(self):
        sim, lower, cache = make(write_back=False)
        ino = write_file(sim, cache, 64 * KiB)
        assert lower.ns.by_ino(ino).size == 64 * KiB

    def test_write_back_defers_lower_io(self):
        sim, lower, cache = make(write_back=True)

        def body():
            ino = yield from cache.op_open(ctx(), "wb", O_RDWR | O_CREAT)
            t0 = sim.now
            yield from cache.op_write(ctx(), ino, 0, 64 * KiB, stream="s")
            fast = sim.now - t0
            # size visible immediately even though lower I/O deferred
            st = yield from cache.op_fstat(ctx(), ino)
            yield from cache.op_fsync(ctx(), ino)
            return ino, fast, st.size

        ino, fast, size = sim.run_process(body())
        assert size == 64 * KiB
        assert fast < 1e-3  # absorbed, no disk time
        assert cache.writebacks == 1  # flushed by fsync

    def test_dirty_eviction_writes_back(self):
        sim, lower, cache = make(write_back=True, capacity=2 * 64 * KiB)

        def body():
            ino = yield from cache.op_open(ctx(), "wb", O_RDWR | O_CREAT)
            for b in range(4):  # dirty 4 blocks through a 2-block cache
                yield from cache.op_write(ctx(), ino, b * 64 * KiB, 64 * KiB, stream="s")
            return ino

        sim.run_process(body())
        assert cache.writebacks >= 2  # evictions flushed dirty data

    def test_truncate_invalidates(self):
        sim, lower, cache = make()
        ino = write_file(sim, cache, 4 * 64 * KiB)

        def body():
            yield from cache.op_read(ctx(), ino, 0, 4 * 64 * KiB, stream="s")
            yield from cache.op_truncate(ctx(), ino, 64 * KiB)
            return [k for k in cache._blocks if k[0] == ino]

        remaining = sim.run_process(body())
        assert all(b < 1 for _, b in remaining)


class TestMetadataPassThrough:
    def test_namespace_shared_with_lower(self):
        sim, lower, cache = make()
        write_file(sim, cache, 10, name="shared")
        assert lower.ns.lookup("shared").size == 10

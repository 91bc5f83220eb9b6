"""Extension experiment: client-side caching vs the read-back workload.

Not a paper figure — the paper's traced benchmark writes; its read-back
variant is where a client cache reshapes the curves Figures 2-4 are built
on.  The ablation stacks :class:`~repro.simfs.cache.CachingFS` over the
node-local scratch FS and measures the re-read speedup and hit rates.
"""

from repro.harness.testbed import build_testbed
from repro.machine import TestbedConfig
from repro.simfs.cache import CacheParams, CachingFS
from repro.simmpi.runtime import mpirun
from repro.units import KiB, MiB
from repro.workloads.generators import io_intensive

ARGS = {
    "base": "/tmp/cachework",
    "n_files": 8,
    "file_size": 512 * KiB,
    "block_size": 64 * KiB,
    "keep": True,
}


def _run(with_cache, write_back=False):
    tb = build_testbed(TestbedConfig())
    cache = None
    if with_cache:
        lower = tb.vfs.unmount("/tmp")
        cache = CachingFS(
            tb.sim, lower,
            CacheParams(capacity=16 * MiB, block_size=64 * KiB, write_back=write_back),
        )
        tb.vfs.mount("/tmp", cache)
    job = mpirun(tb.cluster, tb.vfs, io_intensive, nprocs=1, args=ARGS)
    return job.elapsed, cache


def test_cache_ablation(once):
    def measure():
        plain, _ = _run(False)
        through, c1 = _run(True, write_back=False)
        back, c2 = _run(True, write_back=True)
        return plain, (through, c1.stats()), (back, c2.stats())

    plain, (through, st1), (back, st2) = once(measure)
    print()
    print("no cache:            %.3fs" % plain)
    print("write-through cache: %.3fs  (hit rate %.0f%%)" % (through, 100 * st1["hit_rate"]))
    print("write-back cache:    %.3fs  (hit rate %.0f%%, %d writebacks)"
          % (back, 100 * st2["hit_rate"], st2["writebacks"]))

    # read-back after write is fully cached: the re-read phase is free
    assert st1["hit_rate"] > 0.9
    assert through < plain
    # write-back absorbs the writes too: faster still
    assert back < through

"""Tier-2 bench: the parallel executor and run cache earn their keep.

Two claims from the sweep-engine PR, measured on a real multi-point sweep:

* fanning sweep points over worker processes beats the serial wall-clock
  (needs >= 2 CPUs; skipped on single-core runners);
* a warm-cache rerun of the same sweep is >= 10x faster than the cold run
  (determinism makes every point a pure disk lookup).

Lives in ``benchmarks/`` (outside the tier-1 ``testpaths``) and is marked
``slow`` so the fast suite never pays for it.
"""

import os

import pytest

from repro.harness.figures import run_figures
from repro.harness.runcache import RunCache
from repro.units import KiB, MiB

pytestmark = pytest.mark.slow

N_CPUS = os.cpu_count() or 1
SWEEP = dict(
    figures=(2, 3, 4),
    block_sizes=[64 * KiB, 256 * KiB],
    total_bytes_per_rank=8 * MiB,
    nprocs=16,
    seed=0,
)


def test_parallel_beats_serial(once):
    if N_CPUS < 2:
        pytest.skip("parallel speedup needs >= 2 CPUs (found %d)" % N_CPUS)
    serial = run_figures(jobs=1, **SWEEP)
    parallel = once(run_figures, jobs=min(4, N_CPUS), **SWEEP)
    t_s, t_p = serial.report.wall_seconds, parallel.report.wall_seconds
    print(
        "\nserial %.2fs vs parallel(jobs=%d) %.2fs -> %.2fx"
        % (t_s, parallel.report.jobs, t_p, t_s / t_p)
    )
    assert parallel.series == serial.series  # identical output first
    assert t_p < t_s


def test_warm_cache_rerun_is_10x_faster(once, tmp_path):
    cache = RunCache(tmp_path / "cache")
    cold = run_figures(jobs=1, cache=cache, **SWEEP)
    warm = once(run_figures, jobs=1, cache=cache, **SWEEP)
    t_cold, t_warm = cold.report.wall_seconds, warm.report.wall_seconds
    print(
        "\ncold %.2fs vs warm %.4fs -> %.0fx (hit rate %.0f%%)"
        % (t_cold, t_warm, t_cold / t_warm, 100 * warm.report.cache_hit_rate)
    )
    assert warm.series == cold.series
    assert warm.report.cache_hit_rate == 1.0
    assert t_warm * 10 <= t_cold

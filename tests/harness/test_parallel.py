"""Parallel sweep executor: specs, registries, and the determinism contract.

The cache's and executor's correctness contract is that a sweep's output
is byte-identical whether it runs serially, fanned out over worker
processes, or replayed from a warm cache — these tests pin that down on a
small sweep.
"""

import pickle

import pytest

from repro.errors import ReproError
from repro.fanout import parallel_map
from repro.harness.experiment import run_untraced
from repro.harness.figures import figure_series, run_figures
from repro.harness.parallel import (
    FRAMEWORK_FACTORIES,
    WORKLOADS,
    FrameworkSpec,
    PointResult,
    RunSpec,
    RunStats,
    as_framework_spec,
    build_sweep_specs,
    execute_spec,
    execute_spec_safe,
    run_sweep,
)
from repro.harness.runcache import RunCache, spec_key
from repro.units import KiB, MiB
from repro.workloads.patterns import AccessPattern

QUICK = dict(block_sizes=[64 * KiB, 256 * KiB], total_bytes_per_rank=1 * MiB, nprocs=4)


def _quick_specs(seed=0):
    return build_sweep_specs(
        "lanl-trace",
        "mpi_io_test",
        {"pattern": AccessPattern.N_TO_N, "path": "/pfs/out"},
        QUICK["block_sizes"],
        QUICK["total_bytes_per_rank"],
        nprocs=QUICK["nprocs"],
        seed=seed,
    )


class TestSpecs:
    def test_builtin_registries_populated(self):
        assert {"lanl-trace", "tracefs", "ptrace"} <= set(FRAMEWORK_FACTORIES)
        assert "mpi_io_test" in WORKLOADS

    def test_framework_spec_builds_configured_framework(self):
        fw = FrameworkSpec.create("lanl-trace", mode="strace").build()
        assert fw.name == "lanl-trace"
        assert fw.config.mode == "strace"

    def test_spec_is_pickle_safe(self):
        spec = _quick_specs()[0]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_closure_rejected_with_pointed_error(self):
        with pytest.raises(ReproError, match="process boundary"):
            as_framework_spec(lambda: None)

    def test_unknown_factory_name_rejected(self):
        with pytest.raises(ReproError, match="no framework factory"):
            as_framework_spec("no-such-framework")
        with pytest.raises(ReproError, match="no workload"):
            RunSpec.create("lanl-trace", "no-such-workload", {}).workload_fn()

    def test_sweep_specs_hold_bytes_constant(self):
        specs = _quick_specs()
        assert specs[0].args_dict()["nobj"] == 16
        assert specs[1].args_dict()["nobj"] == 4


class TestExecutor:
    def test_execute_spec_returns_plain_numbers(self):
        point = execute_spec(_quick_specs()[0])
        assert isinstance(point, PointResult)
        assert point.traced.elapsed > point.untraced.elapsed > 0
        assert 0 < point.bandwidth_overhead < 1
        assert point.untraced.events_executed > 0
        assert point.traced.events_executed > point.untraced.events_executed
        assert point.wall_seconds > 0
        # the whole result must survive a process boundary
        assert pickle.loads(pickle.dumps(point)) == point

    def test_run_sweep_preserves_spec_order(self):
        specs = _quick_specs()
        points = run_sweep(specs, jobs=1).points
        assert [p.params_dict()["block_size"] for p in points] == QUICK["block_sizes"]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ReproError):
            run_sweep([], jobs=0)

    def test_failed_plain_run_is_an_annotated_zero_point(self):
        args = {"path": "/nowhere/out", "block_size": 64 * KiB, "nobj": 2}
        with pytest.raises(ReproError) as raised:
            run_untraced(WORKLOADS["mpi_io_test"], args, nprocs=2)
        point = execute_spec_safe(
            RunSpec.create("lanl-trace", "mpi_io_test", args, nprocs=2)
        )
        assert point.error == "%s: %s" % (type(raised.value).__name__, raised.value)
        assert point.untraced == point.traced == RunStats(0.0, 0, 0)
        assert point.chaos is None and point.attempts == 1


class TestDeterminismContract:
    """Same seed ⇒ identical series for jobs=1, jobs=4, and a warm cache."""

    def test_series_identical_across_jobs_and_cache(self, tmp_path):
        serial = figure_series(4, seed=0, jobs=1, **QUICK)
        pooled = figure_series(4, seed=0, jobs=4, **QUICK)
        assert serial == pooled

        cache = RunCache(tmp_path / "cache")
        cold = figure_series(4, seed=0, jobs=4, cache=cache, **QUICK)
        warm = figure_series(4, seed=0, jobs=1, cache=cache, **QUICK)
        assert cold == serial
        assert warm == serial
        assert cache.hits == len(QUICK["block_sizes"])

    def test_events_fingerprints_identical_across_paths(self, tmp_path):
        specs = _quick_specs(seed=1)
        serial = run_sweep(specs, jobs=1).points
        pooled = run_sweep(specs, jobs=4).points
        cache = RunCache(tmp_path / "cache")
        run_sweep(specs, jobs=2, cache=cache)
        warm = run_sweep(specs, jobs=1, cache=cache).points
        fingerprints = [
            (p.untraced.events_executed, p.traced.events_executed) for p in serial
        ]
        for other in (pooled, warm):
            assert [
                (p.untraced.events_executed, p.traced.events_executed) for p in other
            ] == fingerprints

    def test_run_figures_combined_sweep_matches_per_figure(self):
        sweep = run_figures(figures=(3, 4), seed=0, jobs=2, **QUICK)
        assert sweep.series[3] == figure_series(3, seed=0, **QUICK)
        assert sweep.series[4] == figure_series(4, seed=0, **QUICK)
        assert sweep.report.n_points == 4
        assert all(
            m.events_executed > 0
            for s in sweep.series.values()
            for m in s.measurements
        )
        lo, hi = sweep.overhead_range["min"], sweep.overhead_range["max"]
        assert 0 < lo <= hi


class TestParallelMap:
    def test_preserves_item_order(self):
        items = [-3, -1, -2, -5]
        assert parallel_map(abs, items, jobs=1) == [3, 1, 2, 5]
        assert parallel_map(abs, items, jobs=3) == [3, 1, 2, 5]

    def test_single_item_stays_serial(self):
        assert parallel_map(abs, [-7], jobs=8) == [7]

    def test_empty_and_invalid_jobs(self):
        assert parallel_map(abs, [], jobs=4) == []
        with pytest.raises(ReproError):
            parallel_map(abs, [1], jobs=0)


class TestStoreIntegration:
    """Sweeps with ``store=`` archive every run and stay cache-coherent."""

    def _store_specs(self, store, seed=0):
        return build_sweep_specs(
            "lanl-trace",
            "mpi_io_test",
            {"pattern": AccessPattern.N_TO_N, "path": "/pfs/out"},
            QUICK["block_sizes"],
            QUICK["total_bytes_per_rank"],
            nprocs=QUICK["nprocs"],
            seed=seed,
            store=store,
        )

    def test_sweep_ingests_and_second_sweep_dedups(self, tmp_path):
        from repro.store.bank import TraceBank

        store = str(tmp_path / "bank")
        points = run_sweep(self._store_specs(store), jobs=2).points
        assert all(p.store_run_id for p in points)
        bank = TraceBank(store, create=False)
        assert len(bank.run_ids()) == len(points)
        n_segments = len(bank.disk_segments())

        # Acceptance criterion: re-running the sweep adds zero segments.
        again = run_sweep(self._store_specs(store), jobs=1).points
        assert [p.store_run_id for p in again] == [p.store_run_id for p in points]
        assert len(bank.disk_segments()) == n_segments
        assert len(bank.run_ids()) == len(points)
        assert bank.verify()["ok"]

    def test_store_widens_the_cache_key(self, tmp_path):
        plain = _quick_specs()[0]
        stored = self._store_specs(str(tmp_path / "bank"))[0]
        assert spec_key(plain) != spec_key(stored)
        # ...but the key must not depend on *where* the archive lives.
        moved = self._store_specs(str(tmp_path / "elsewhere"))[0]
        assert spec_key(stored) == spec_key(moved)

    def test_cache_payload_roundtrips_store_run_id(self, tmp_path):
        spec = self._store_specs(str(tmp_path / "bank"))[0]
        cache = RunCache(tmp_path / "cache")
        point = execute_spec(spec)
        assert point.store_run_id
        cache.put(spec, point)
        warm = cache.get(spec)
        assert warm is not None
        assert warm.store_run_id == point.store_run_id

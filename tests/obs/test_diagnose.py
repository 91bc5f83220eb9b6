"""Archive-scale diagnosis: the E2E acceptance path.

One chaos sweep archived with ``--store``: four clean runs (distinct
seeds — the archive is content-addressed, identical runs dedup) plus one
DiskSlowdown run.  ``diagnose_archive`` must flag exactly the faulted
run, indict the ``simfs`` layer and the write op, and hand back a causal
slice whose bounding chain crosses at least three stack layers —
byte-identically across job counts and cache temperature.
"""

import pytest

from repro.errors import StoreError
from repro.faults import DiskSlowdown, FaultSchedule
from repro.harness.parallel import FrameworkSpec, RunSpec, run_sweep
from repro.harness.runcache import RunCache
from repro.obs.diagnose import (
    DIAGNOSE_SCHEMA,
    MAD_CONSISTENCY,
    cluster_fingerprints,
    diagnose_archive,
    fingerprint_distance,
    fingerprint_run,
    mad,
    median,
    render_diagnose,
    robust_threshold,
)
from repro.obs.metrics import canonical_json
from repro.store.bank import TraceBank

ARGS = (("block_size", 65536), ("nobj", 8), ("total_mb", 1))
CLEAN_SEEDS = (0, 1, 2, 3)
FAULT_SEED = 7


def _spec(store, seed, faults):
    return RunSpec(
        framework=FrameworkSpec("lanl-trace", ()),
        workload="mpi_io_test",
        workload_args=ARGS,
        nprocs=4,
        seed=seed,
        faults=faults,
        store=str(store),
    )


def _slow_schedule():
    return FaultSchedule.of(
        DiskSlowdown(at=0.05, duration=0.15, extra_latency=0.002),
        name="disk-slow",
    )


def _archive_specs(store):
    specs = [_spec(store, seed, FaultSchedule()) for seed in CLEAN_SEEDS]
    specs.append(_spec(store, FAULT_SEED, _slow_schedule()))
    return specs


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    store = tmp_path_factory.mktemp("diagnose") / "store"
    result = run_sweep(_archive_specs(store), jobs=2)
    assert all(p.error is None for p in result.points)
    return store


def _faulted_run_id(store):
    bank = TraceBank(store, create=False)
    (m,) = [m for m in bank.manifests() if m.meta.get("scenario") == "disk-slow"]
    return m.run_id


class TestAcceptance:
    def test_flags_exactly_the_faulted_run(self, archive):
        report = diagnose_archive(str(archive), jobs=1)
        assert report["schema"] == DIAGNOSE_SCHEMA
        assert report["summary"]["runs"] == 5
        assert [o["run_id"] for o in report["outliers"]] == [
            _faulted_run_id(archive)
        ]

    def test_top_suspect_is_the_disk_layer_and_the_write_op(self, archive):
        (outlier,) = diagnose_archive(str(archive), jobs=1)["outliers"]
        assert outlier["suspect_layer"] == "simfs"
        assert outlier["suspect_op"]["op"] == "SYS_write"
        assert isinstance(outlier["suspect_rank"], int)
        assert outlier["score"] > 1.0

    def test_outlier_slice_crosses_three_layers(self, archive):
        (outlier,) = diagnose_archive(str(archive), jobs=1)["outliers"]
        sl = outlier["slice"]
        assert sl is not None
        assert len(sl["layers_crossed"]) >= 3
        assert {"simmpi", "simos", "simfs"} <= set(sl["layers_crossed"])

    def test_injected_schedule_surfaces_as_fault_candidate(self, archive):
        # The chaos executor archives the structured schedule in the
        # manifest; the auto-slice reads it back and the fault-overlap
        # boost marks the indicted layer.
        (outlier,) = diagnose_archive(str(archive), jobs=1)["outliers"]
        candidates = outlier["slice"]["fault_candidates"]
        assert [c["type"] for c in candidates] == ["DiskSlowdown"]
        assert candidates[0]["layer"] == "simfs"
        (top,) = [s for s in outlier["suspects"] if s["layer"] == "simfs"][:1]
        assert top.get("fault_overlap") is True

    def test_render_prints_the_ranked_suspect_table(self, archive):
        report = diagnose_archive(str(archive), jobs=1)
        text = render_diagnose(report)
        assert "1 outlier(s)" in text
        assert "disk-slow" in text
        assert "simfs" in text
        assert "SYS_write" in text
        assert "chain crosses" in text

    def test_against_pinned_baseline_flags_the_same_run(self, archive):
        clean_prefix = sorted(
            m.run_id for m in TraceBank(archive, create=False).manifests()
            if m.meta.get("scenario") == "baseline"
        )[0][:12]
        report = diagnose_archive(str(archive), against=clean_prefix, jobs=1)
        assert _faulted_run_id(archive) in [
            o["run_id"] for o in report["outliers"]
        ]
        assert report["params"]["against"] is not None

    def test_prefix_filter_shrinks_group_below_gating(self, archive):
        faulted = _faulted_run_id(archive)
        report = diagnose_archive(
            str(archive), run_prefixes=[faulted[:12]], slice_outliers=False
        )
        assert report["summary"]["runs"] == 1
        assert report["summary"]["insufficient_groups"] == 1
        assert report["outliers"] == []

    def test_no_matching_runs_raises(self, archive):
        with pytest.raises(StoreError, match="no archived runs"):
            diagnose_archive(str(archive), run_prefixes=["zzzz"])


class TestRobustScoring:
    def test_median_and_mad(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
        assert mad([0.9, 1.0, 1.5, 1.6], 1.25) == pytest.approx(0.3)

    def test_mad_widens_the_threshold_for_noisy_series(self):
        # A quiet series gates at its floors; one that swings by 50% has
        # a wide MAD, so the same +20% move stays inside its threshold.
        assert robust_threshold(1.0, 0.0, 4.0, 0.05, 1e-4) == pytest.approx(0.05)
        assert robust_threshold(0.0, 0.0, 4.0, 0.05, 1e-4) == 1e-4
        noisy = [1.0, 1.5, 0.9, 1.6]
        center = median(noisy)
        threshold = robust_threshold(center, mad(noisy, center), 4.0, 0.05, 1e-4)
        assert threshold == pytest.approx(4.0 * MAD_CONSISTENCY * 0.3)
        assert threshold > 0.2 * center


class TestFingerprints:
    def test_fingerprint_reads_shape_and_time(self, archive):
        bank = TraceBank(archive, create=False)
        fp = fingerprint_run(bank, _faulted_run_id(archive))
        assert fp["n_events"] > 0
        assert fp["elapsed"] > 0
        assert "SYS__llseek->SYS_write" in fp["edges"]
        assert fp["layers"]["simfs"] > 0
        assert len(fp["ranks"]) == 4
        assert canonical_json(fp) == canonical_json(
            fingerprint_run(bank, _faulted_run_id(archive))
        )

    def test_distance_is_a_metric_like_score(self, archive):
        bank = TraceBank(archive, create=False)
        ids = sorted(m.run_id for m in bank.manifests())
        a, b = fingerprint_run(bank, ids[0]), fingerprint_run(bank, ids[1])
        assert fingerprint_distance(a, a) == 0.0
        d = fingerprint_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert fingerprint_distance(b, a) == pytest.approx(d)

    def test_same_workload_runs_cluster_together(self, archive):
        bank = TraceBank(archive, create=False)
        fps = [fingerprint_run(bank, m.run_id) for m in bank.manifests()]
        clusters = cluster_fingerprints(fps)
        assert sum(c["size"] for c in clusters) == 5
        # A latency-only fault does not change the DFG shape: one shape.
        assert len(clusters) == 1


class TestDeterminism:
    def test_report_is_byte_identical_across_jobs(self, archive):
        serial = canonical_json(diagnose_archive(str(archive), jobs=1))
        fanned = canonical_json(diagnose_archive(str(archive), jobs=4))
        assert serial == fanned

    def test_report_survives_cold_and_warm_cache_rebuilds(self, tmp_path):
        # The same sweep replayed from a warm run cache re-archives the
        # identical bundles (content-addressed dedup), so the diagnosis
        # must not move by a byte.
        store = tmp_path / "store"
        cache = RunCache(tmp_path / "cache")
        specs = _archive_specs(store)
        run_sweep(specs, jobs=2, cache=cache)
        cold = canonical_json(diagnose_archive(str(store), jobs=2))
        warm_result = run_sweep(specs, jobs=1, cache=cache)
        assert all(p.cached for p in warm_result.points)
        warm = canonical_json(diagnose_archive(str(store), jobs=1))
        assert warm == cold
        outliers = diagnose_archive(str(store))["outliers"]
        assert [o["meta"]["scenario"] for o in outliers] == ["disk-slow"]

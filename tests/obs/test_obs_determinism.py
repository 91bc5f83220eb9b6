"""Observatory determinism: diff/flamegraph byte-identity across executors.

Satellite of the telemetry determinism contract
(``tests/harness/test_telemetry_determinism.py``): the *derived*
artifacts — ``compare_payloads`` reports and collapsed flamegraph
stacks — must also be byte-identical across ``jobs=1`` / ``jobs=4`` and
cold / warm cache, because CI diffs them across machines.
"""

from repro.harness.parallel import build_sweep_specs, run_sweep
from repro.harness.runcache import RunCache
from repro.obs.compare import compare_payloads
from repro.obs.critpath import critical_path, flamegraph_lines
from repro.obs.metrics import canonical_json
from repro.units import KiB, MiB
from repro.workloads import AccessPattern


def _specs():
    return build_sweep_specs(
        "lanl-trace",
        "mpi_io_test",
        {"pattern": AccessPattern.N_TO_N, "path": "/pfs/out"},
        [64 * KiB],
        1 * MiB,
        nprocs=4,
        seed=0,
        telemetry=True,
    )


def _observatory_bytes(result):
    """Everything the observatory derives from one sweep, canonicalized."""
    rows = []
    for p in result.points:
        diff = compare_payloads(
            p.telemetry["untraced"], p.telemetry["traced"], "untraced", "traced"
        )
        rows.append(diff)
        rows.append(critical_path(p.telemetry["traced"]))
        rows.append(flamegraph_lines(p.telemetry["traced"]))
    return canonical_json(rows)


class TestObservatoryByteIdentity:
    def test_diff_and_flamegraph_identical_across_jobs_and_cache(self, tmp_path):
        specs = _specs()
        serial = run_sweep(specs, jobs=1)
        fanned = run_sweep(specs, jobs=4)
        cache = RunCache(tmp_path / "cache")
        cold = run_sweep(specs, jobs=2, cache=cache)
        warm = run_sweep(specs, jobs=1, cache=cache)
        assert all(p.cached for p in warm.points)
        reference = _observatory_bytes(serial)
        assert _observatory_bytes(fanned) == reference
        assert _observatory_bytes(cold) == reference
        assert _observatory_bytes(warm) == reference
        # Same payload bytes from two executors => an all-zero diff.
        cross = compare_payloads(
            serial.points[0].telemetry["traced"],
            fanned.points[0].telemetry["traced"],
        )
        assert cross["counters"] == []
        assert cross["spans"] == []
        assert cross["end_time_delta"] == 0.0

    def test_traced_run_diff_surfaces_the_tracer(self, tmp_path):
        point = run_sweep(_specs(), jobs=1).points[0]
        diff = compare_payloads(
            point.telemetry["untraced"], point.telemetry["traced"]
        )
        # Tracing slows the run down and the diff's headline says so.
        assert diff["end_time_delta"] > 0.0
        assert diff["dominant_layer"] is not None
        assert diff["b"]["n_spans"] > diff["a"]["n_spans"]

"""Telemetry determinism: jobs=1 / jobs=N / warm cache byte-identity.

The telemetry contract extends the sweep determinism contract: with a
fixed seed, the exported metric snapshots and span traces must be
byte-identical however the sweep executed, and must never perturb the
simulated history they observe.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.schedule import (
    DiskSlowdown,
    FaultSchedule,
    NetworkPartition,
    NodeCrash,
)
from repro.harness.experiment import run_once
from repro.harness.figures import paper_testbed
from repro.harness.parallel import RunSpec, build_sweep_specs, execute_spec, run_sweep
from repro.harness.runcache import RunCache, spec_key
from repro.obs.metrics import canonical_json
from repro.obs.perfetto import validate_chrome_trace
from repro.units import KiB, MiB
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern

QUICK = dict(block_sizes=[64 * KiB, 256 * KiB], total_bytes_per_rank=1 * MiB, nprocs=4)


def _quick_specs(seed=0, telemetry=False):
    return build_sweep_specs(
        "lanl-trace",
        "mpi_io_test",
        {"pattern": AccessPattern.N_TO_N, "path": "/pfs/out"},
        QUICK["block_sizes"],
        QUICK["total_bytes_per_rank"],
        nprocs=QUICK["nprocs"],
        seed=seed,
        telemetry=telemetry,
    )


def _telemetry_bytes(result):
    return canonical_json([p.telemetry for p in result.points])


class TestByteIdentity:
    def test_serial_parallel_and_cache_agree(self, tmp_path):
        specs = _quick_specs(telemetry=True)
        serial = run_sweep(specs, jobs=1)
        fanned = run_sweep(specs, jobs=4)
        cache = RunCache(tmp_path / "cache")
        cold = run_sweep(specs, jobs=2, cache=cache)
        warm = run_sweep(specs, jobs=1, cache=cache)
        assert all(p.cached for p in warm.points)
        reference = _telemetry_bytes(serial)
        assert _telemetry_bytes(fanned) == reference
        assert _telemetry_bytes(cold) == reference
        assert _telemetry_bytes(warm) == reference

    def test_payloads_carry_valid_traces(self):
        point = execute_spec(_quick_specs(telemetry=True)[0])
        assert set(point.telemetry) == {"untraced", "traced"}
        for payload in point.telemetry.values():
            assert payload["schema"] == "repro/telemetry/v1"
            validate_chrome_trace(payload["trace"])
            assert payload["metrics"]["counters"]["des.events_dispatched"] > 0

    def test_different_points_have_different_payloads(self):
        small, large = (execute_spec(s) for s in _quick_specs(telemetry=True))
        assert canonical_json(small.telemetry) != canonical_json(large.telemetry)


class TestObservationIsPassive:
    def test_telemetry_does_not_change_measurements(self):
        plain = execute_spec(_quick_specs()[0])
        observed = execute_spec(_quick_specs(telemetry=True)[0])
        assert plain.telemetry is None
        assert observed.untraced.elapsed == plain.untraced.elapsed
        assert observed.traced.elapsed == plain.traced.elapsed
        assert observed.events_executed == plain.events_executed

    def test_exported_event_count_matches_fingerprint(self):
        spec = _quick_specs(telemetry=True)[0]
        point = execute_spec(spec)
        total = sum(
            payload["metrics"]["counters"]["des.events_dispatched"]
            for payload in point.telemetry.values()
        )
        assert total == point.events_executed


class TestCacheKeying:
    def test_telemetry_widens_the_key(self):
        plain, observed = _quick_specs()[0], _quick_specs(telemetry=True)[0]
        assert spec_key(plain) != spec_key(observed)
        # Same telemetry flag -> same key (the key stays deterministic).
        assert spec_key(observed) == spec_key(_quick_specs(telemetry=True)[0])

    def test_round_trip_preserves_payload_exactly(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        spec = _quick_specs(telemetry=True)[0]
        fresh = execute_spec(spec)
        cache.put(spec, fresh)
        replayed = cache.get(spec)
        assert replayed is not None
        assert replayed.telemetry == fresh.telemetry
        assert canonical_json(replayed.telemetry) == canonical_json(fresh.telemetry)

    def test_plain_entry_not_served_for_telemetry_spec(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        plain = _quick_specs()[0]
        cache.put(plain, execute_spec(plain))
        assert cache.get(_quick_specs(telemetry=True)[0]) is None


# -- fault-plane determinism -------------------------------------------------

_CHAOS_ARGS = {"path": "/pfs/chaos.out", "block_size": 64 * KiB, "nobj": 4}


def _fault_spec(schedule):
    return RunSpec.create(
        "lanl-trace",
        "mpi_io_test",
        _CHAOS_ARGS,
        config=paper_testbed(seed=0, nprocs=2),
        nprocs=2,
        seed=0,
        faults=schedule,
        sim_timeout=30.0,
        retries=1,
    )


def _chaos_bytes(result):
    return canonical_json([[p.chaos, p.error, p.attempts] for p in result.points])


#: Schedules whose events all land inside the ~0.13-0.4s run window.
_schedules = st.lists(
    st.one_of(
        st.builds(
            NodeCrash,
            at=st.floats(0.01, 0.1, allow_nan=False),
            node=st.integers(0, 1),
        ),
        st.builds(
            NetworkPartition,
            at=st.floats(0.01, 0.1, allow_nan=False),
            nodes=st.sets(st.integers(0, 1), min_size=1, max_size=1).map(tuple),
            heal_after=st.floats(0.005, 0.05, allow_nan=False),
        ),
        st.builds(
            DiskSlowdown,
            at=st.floats(0.0, 0.1, allow_nan=False),
            duration=st.floats(0.01, 0.3, allow_nan=False),
            extra_latency=st.floats(1e-4, 5e-3, allow_nan=False),
        ),
    ),
    max_size=2,
).map(lambda evs: FaultSchedule.of(*evs, name="prop"))


class TestFaultDeterminism:
    """Identical FaultSchedule + seed => byte-identical fault histories."""

    @settings(max_examples=8, deadline=None)
    @given(schedule=_schedules)
    def test_fault_event_sequence_is_reproducible(self, schedule):
        outcomes = [
            run_once(
                mpi_io_test,
                dict(_CHAOS_ARGS),
                config=paper_testbed(seed=0, nprocs=2),
                nprocs=2,
                seed=0,
                faults=schedule,
                horizon=30.0,
            )
            for _ in range(2)
        ]
        a, b = outcomes
        assert a.status == b.status
        assert canonical_json(a.faults) == canonical_json(b.faults)
        assert a.stats == b.stats
        assert a.killed_ranks == b.killed_ranks

    def test_chaos_points_identical_across_jobs_and_cache(self, tmp_path):
        schedule = FaultSchedule.of(
            NodeCrash(at=0.05, node=1),
            DiskSlowdown(at=0.0, duration=0.3, extra_latency=1e-3),
            name="determinism",
        )
        specs = [_fault_spec(schedule)]
        serial = run_sweep(specs, jobs=1)
        fanned = run_sweep(specs * 2, jobs=2)  # >1 pending point => real pool
        cache = RunCache(tmp_path / "cache")
        cold = run_sweep(specs, jobs=1, cache=cache)
        warm = run_sweep(specs, jobs=1, cache=cache)
        assert all(p.cached for p in warm.points)
        reference = _chaos_bytes(serial)
        assert canonical_json([[p.chaos, p.error, p.attempts] for p in fanned.points[:1]]) == reference
        assert _chaos_bytes(cold) == reference
        assert _chaos_bytes(warm) == reference

    def test_fault_fields_widen_the_cache_key(self):
        schedule = FaultSchedule.of(NodeCrash(at=0.05, node=1), name="k")
        plain = RunSpec.create(
            "lanl-trace", "mpi_io_test", _CHAOS_ARGS,
            config=paper_testbed(seed=0, nprocs=2), nprocs=2, seed=0,
        )
        faulted = _fault_spec(schedule)
        assert spec_key(plain) != spec_key(faulted)
        # Deterministic: same schedule -> same key.
        assert spec_key(faulted) == spec_key(_fault_spec(schedule))
        # Different schedule -> different key.
        other = FaultSchedule.of(NodeCrash(at=0.06, node=1), name="k")
        assert spec_key(faulted) != spec_key(_fault_spec(other))

"""Zoo matrix: determinism contract and signature checks."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgument
from repro.harness.runcache import RunCache
from repro.obs.metrics import canonical_json
from repro.zoo import (
    ZOO_SCHEMA,
    build_zoo_specs,
    check_signature,
    get,
    names,
    render_zoo_report,
    run_zoo_matrix,
)


def _rows(**kw):
    return canonical_json(run_zoo_matrix(smoke=True, **kw)["rows"])


class TestMatrixShape:
    def test_smoke_matrix_runs_every_scenario(self):
        report = run_zoo_matrix(smoke=True, jobs=2)
        assert report["schema"] == ZOO_SCHEMA
        assert [r["scenario"] for r in report["rows"]] == names()
        assert report["summary"]["completed"] == len(names())
        assert all(r["error"] is None for r in report["rows"])

    def test_rows_are_clock_free(self):
        report = run_zoo_matrix(scenarios=["md-storm"], smoke=True)
        row = report["rows"][0]
        assert "wall_seconds" not in row
        assert "wall_seconds" in report["execution"]

    def test_scenario_selection(self):
        report = run_zoo_matrix(scenarios=["ml-epoch"], smoke=True)
        assert [r["scenario"] for r in report["rows"]] == ["ml-epoch"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(InvalidArgument):
            run_zoo_matrix(scenarios=["nope"], smoke=True)

    def test_empty_selection_rejected(self):
        with pytest.raises(InvalidArgument):
            build_zoo_specs(scenarios=[])

    def test_replay_check_requires_store(self):
        with pytest.raises(InvalidArgument, match="store"):
            run_zoo_matrix(smoke=True, replay_check=True)

    def test_render_lists_every_scenario(self):
        text = render_zoo_report(run_zoo_matrix(smoke=True, jobs=2))
        for name in names():
            assert name in text


class TestByteIdentity:
    """The determinism contract: rows are pure functions of (spec, seed)."""

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_rows_identical_across_jobs_and_cache(self, seed):
        reference = _rows(seed=seed, jobs=1)
        assert _rows(seed=seed, jobs=4) == reference
        with tempfile.TemporaryDirectory() as d:
            cache = RunCache(Path(d) / "cache")
            assert _rows(seed=seed, jobs=2, cache=cache) == reference  # cold
            assert _rows(seed=seed, jobs=1, cache=cache) == reference  # warm

    def test_archived_rows_identical_including_fidelity(self, tmp_path):
        # Run ids are content-derived, so even with archiving + replay
        # check the whole row — fidelity verdict included — is stable.
        a = canonical_json(
            run_zoo_matrix(
                smoke=True, jobs=1, store=str(tmp_path / "a"), replay_check=True
            )["rows"]
        )
        b = canonical_json(
            run_zoo_matrix(
                smoke=True, jobs=4, store=str(tmp_path / "b"), replay_check=True
            )["rows"]
        )
        assert a == b


class TestSignatureCheck:
    def _profile(self, read=(0, 0), write=(0, 0), metadata=(0, 0)):
        classes = {
            "read": {"count": read[0], "bytes": read[1]},
            "write": {"count": write[0], "bytes": write[1]},
            "metadata": {"count": metadata[0], "bytes": metadata[1]},
        }
        return {
            "classes": classes,
            "total_ops": sum(c["count"] for c in classes.values()),
            "total_bytes": sum(c["bytes"] for c in classes.values()),
        }

    def test_write_dominant_ok(self):
        profile = self._profile(write=(4, 4096), read=(1, 512), metadata=(2, 0))
        assert check_signature(get("ckpt-tiered"), profile) == []

    def test_missing_payload_is_a_violation(self):
        violations = check_signature(get("ckpt-tiered"), self._profile(metadata=(3, 0)))
        assert any("saw none" in v for v in violations)

    def test_wrong_dominance_is_a_violation(self):
        profile = self._profile(write=(1, 100), read=(9, 9000))
        violations = check_signature(get("ckpt-tiered"), profile)
        assert any("write-dominant" in v for v in violations)

    def test_metadata_storm_must_not_move_payload(self):
        profile = self._profile(metadata=(10, 0), write=(1, 4096))
        violations = check_signature(get("md-storm"), profile)
        assert any("zero payload" in v for v in violations)

    def test_metadata_dominance_required(self):
        profile = self._profile(metadata=(2, 0), read=(5, 0))
        violations = check_signature(get("md-storm"), profile)
        assert any("metadata-dominant" in v for v in violations)

    def test_all_live_scenarios_match_their_signatures(self, tmp_path):
        report = run_zoo_matrix(smoke=True, jobs=4, store=str(tmp_path / "bank"))
        assert report["summary"]["signature_ok"] == len(names())
        for row in report["rows"]:
            assert row["signature"]["ok"], row["signature"]["violations"]

    def test_signature_cell_absent_without_store(self):
        report = run_zoo_matrix(scenarios=["md-storm"], smoke=True)
        assert report["rows"][0]["signature"] is None

"""Zoo scenario registry: lookup, arg merging, and RunSpec lowering."""

import pytest

from repro.errors import InvalidArgument
from repro.harness.parallel import WORKLOADS
from repro.obs.metrics import canonical_json
from repro.units import KiB
from repro.zoo.registry import SCENARIOS, ZOO_NPROCS, ZooScenario, get, names, register


class TestRegistry:
    def test_builtins_are_registered_in_order(self):
        assert names() == ["ckpt-tiered", "ml-epoch", "log-append", "md-storm"]

    def test_every_scenario_workload_is_runnable(self):
        # The pickle-safe harness contract: process-pool workers resolve
        # workloads by registry name, so every zoo workload must be there.
        for sc in SCENARIOS.values():
            assert sc.workload in WORKLOADS

    def test_get_unknown_lists_known_names(self):
        with pytest.raises(InvalidArgument, match="ckpt-tiered"):
            get("no-such-scenario")

    def test_register_rejects_duplicate_name(self):
        with pytest.raises(InvalidArgument, match="already registered"):
            register(SCENARIOS["md-storm"])

    def test_register_rejects_unknown_workload(self):
        with pytest.raises(InvalidArgument, match="unregistered workload"):
            register(
                ZooScenario(
                    name="bogus",
                    title="t",
                    description="d",
                    workload="not_a_workload",
                )
            )

    def test_register_and_lookup_round_trip(self):
        sc = ZooScenario(
            name="tmp-test-scenario",
            title="t",
            description="d",
            workload="zoo_metadata_storm",
        )
        try:
            assert register(sc) is sc
            assert get("tmp-test-scenario") is sc
        finally:
            SCENARIOS.pop("tmp-test-scenario")


class TestScenarioArgs:
    def test_base_args_at_full_scale(self):
        sc = get("ml-epoch")
        args = sc.args(smoke=False)
        assert args["samples_per_rank"] == 96
        assert args["block_size"] == 128 * KiB

    def test_smoke_overrides_base(self):
        sc = get("ml-epoch")
        args = sc.args(smoke=True)
        assert args["samples_per_rank"] == 8
        # keys the smoke set does not mention keep their base values
        assert args["shuffle_seed"] == 0

    def test_explicit_overrides_win(self):
        args = get("md-storm").args(smoke=True, overrides={"n_files": 3})
        assert args["n_files"] == 3
        assert args["subdirs"] == 2

    def test_args_returns_a_fresh_dict(self):
        sc = get("log-append")
        sc.args()["segments"] = 999
        assert sc.args()["segments"] == 6


class TestSpecLowering:
    def test_spec_carries_scenario_shape(self):
        spec = get("ckpt-tiered").spec(seed=7, smoke=True)
        assert spec.nprocs == ZOO_NPROCS
        assert spec.seed == 7
        assert spec.framework.name == "lanl-trace"
        assert spec.workload == "zoo_checkpoint_tiered"
        assert spec.args_dict()["phases"] == 2

    def test_spec_framework_override(self):
        spec = get("md-storm").spec(framework="ptrace")
        assert spec.framework.name == "ptrace"

    def test_describe_is_canonical_json(self):
        for sc in SCENARIOS.values():
            desc = sc.describe()
            assert canonical_json(desc)  # serializable, no exotic types
            assert desc["signature"] == sc.signature_dict()
            assert set(desc["param_space"]) >= set(dict(sc.smoke_args))

"""Tenant namespaces: isolation, shared-pool dedup, name validation, gc.

Isolation is structural — a tenant's bank simply has no path to another
tenant's manifests — so these tests attack it from the angles a filter
based design would get wrong: shared segments, identical content in two
tenants (and hence the *same* content-derived run id), and run-id-prefix
selectors that would match a sibling's runs if selection ever crossed
namespaces.
"""

import pytest

from repro.errors import StoreError, StoreNotFound, TenantNameError
from repro.service.tenants import TenantRegistry, validate_tenant_name
from repro.store.query import Query, run_query
from repro.trace.records import TraceBundle
from storeutil import make_bundle, make_trace_file


def _bundle(rank=0, n=8, name="SYS_write"):
    tf = make_trace_file(rank=rank, n=n, name=name)
    b = TraceBundle(files={rank: tf})
    return b


class TestTenantNames:
    @pytest.mark.parametrize("name", ["alice", "a", "t-1", "org.team_x", "0x9"])
    def test_legal_names(self, name):
        assert validate_tenant_name(name) == name

    @pytest.mark.parametrize(
        "name",
        ["", "Alice", "-lead", ".dot", "a/b", "a\\b", "../../etc", "a" * 65,
         "a b", "é", None, 7],
    )
    def test_illegal_names_rejected(self, name):
        with pytest.raises(TenantNameError):
            validate_tenant_name(name)

    def test_registry_never_creates_bad_dirs(self, tmp_path):
        reg = TenantRegistry(tmp_path / "svc")
        with pytest.raises(TenantNameError):
            reg.bank("../escape")
        assert not (tmp_path / "escape").exists()


class TestSharedPool:
    def test_same_content_dedups_across_tenants(self, tmp_path):
        reg = TenantRegistry(tmp_path / "svc")
        a = reg.bank("alice")
        b = reg.bank("bob")
        ra = a.ingest_bundle(_bundle())
        rb = b.ingest_bundle(_bundle())
        # Content-derived ids: identical bytes -> identical run id,
        # and the second tenant stores zero new segments.
        assert ra.run_id == rb.run_id
        assert ra.new_segments == ra.segments
        assert rb.new_segments == 0
        assert rb.deduped_segments == rb.segments

    def test_stats_reports_cross_tenant_dedup(self, tmp_path):
        reg = TenantRegistry(tmp_path / "svc")
        reg.bank("alice").ingest_bundle(_bundle())
        reg.bank("bob").ingest_bundle(_bundle())
        stats = reg.stats()
        assert stats["tenants"] == 2
        assert stats["runs"] == 2
        assert stats["dedup_ratio"] > 1.5  # two logical copies, one stored
        assert stats["per_tenant"]["alice"]["runs"] == 1
        assert stats["per_tenant"]["bob"]["runs"] == 1

    def test_service_verify_clean_across_namespaces(self, tmp_path):
        reg = TenantRegistry(tmp_path / "svc")
        reg.bank("alice").ingest_bundle(_bundle())
        reg.bank("bob").ingest_bundle(_bundle(rank=1, name="SYS_read"))
        report = reg.verify()
        assert report["ok"], report
        assert set(report["namespaces"]) == {"_root", "alice", "bob"}


class TestIsolation:
    def test_tenant_sees_only_its_own_runs(self, tmp_path):
        reg = TenantRegistry(tmp_path / "svc")
        a = reg.bank("alice")
        b = reg.bank("bob")
        ra = a.ingest_bundle(_bundle(name="SYS_write"))
        rb = b.ingest_bundle(_bundle(rank=1, name="SYS_read"))
        assert [m.run_id for m in a.manifests()] == [ra.run_id]
        assert [m.run_id for m in b.manifests()] == [rb.run_id]
        rep_a = run_query(a, Query.create(agg="ops"))
        assert "SYS_read" not in rep_a["result"]["ops"]
        rep_b = run_query(b, Query.create(agg="ops"))
        assert "SYS_write" not in rep_b["result"]["ops"]

    def test_shared_segments_do_not_leak_runs(self, tmp_path):
        reg = TenantRegistry(tmp_path / "svc")
        a = reg.bank("alice")
        b = reg.bank("bob")
        a.ingest_bundle(_bundle())
        b.ingest_bundle(_bundle())  # same segments, same run id
        # bob's namespace holds exactly one manifest even though every
        # one of its segment files was written by alice's ingest.
        assert len(b.manifests()) == 1
        rep = run_query(b, Query.create(agg="events"))
        assert rep["scan"]["runs_selected"] == 1

    def test_run_id_prefix_selector_stays_in_namespace(self, tmp_path):
        reg = TenantRegistry(tmp_path / "svc")
        a = reg.bank("alice")
        b = reg.bank("bob")
        ra = a.ingest_bundle(_bundle())
        b.ingest_bundle(_bundle(rank=1, name="SYS_read"))
        # alice's run id as a --runs prefix against bob's namespace:
        # the segments exist on disk via the shared pool, but bob's bank
        # must select nothing — not alice's run.
        rep = run_query(b, Query.create(agg="ops", runs=[ra.run_id[:12]]))
        assert rep["scan"]["runs_selected"] == 0
        assert rep["result"]["ops"] == {}
        # ...while the same prefix in alice's own namespace selects hers.
        rep_a = run_query(a, Query.create(agg="ops", runs=[ra.run_id[:12]]))
        assert rep_a["scan"]["runs_selected"] == 1

    def test_unknown_tenant_is_not_created_on_read(self, tmp_path):
        reg = TenantRegistry(tmp_path / "svc")
        with pytest.raises(StoreNotFound):
            reg.bank("ghost", create=False)
        assert reg.list_tenants() == []


class TestTenantGc:
    def test_tenant_bank_refuses_gc(self, tmp_path):
        reg = TenantRegistry(tmp_path / "svc")
        a = reg.bank("alice")
        a.ingest_bundle(_bundle())
        with pytest.raises(StoreError, match="tenant namespace"):
            a.gc()

    def test_root_gc_keeps_tenant_pinned_segments(self, tmp_path):
        reg = TenantRegistry(tmp_path / "svc")
        a = reg.bank("alice")
        result = a.ingest_bundle(_bundle())
        report = reg.gc()
        assert report["removed_segments"] == []
        assert report["kept_segments"] == result.segments
        assert a.verify()["ok"]

    def test_root_gc_removes_truly_unreferenced(self, tmp_path):
        reg = TenantRegistry(tmp_path / "svc")
        a = reg.bank("alice")
        a.ingest_bundle(_bundle())
        # An orphan in the shared pool (no manifest anywhere names it).
        orphan = reg.root_bank.segments_dir / "ff" / ("f" * 64 + ".seg")
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"junk")
        report = reg.gc(tmp_ttl_seconds=0.0)
        assert len(report["removed_segments"]) == 1
        assert not orphan.exists()
        assert a.verify()["ok"]

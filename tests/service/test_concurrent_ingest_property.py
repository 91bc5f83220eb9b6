"""Property: concurrent interleaved multi-tenant ingest == serial ingest.

Hypothesis deals a random schedule of (tenant, bundle) ingests where the
bundles deliberately overlap (drawn from a small pool, so the same
segments land from different tenants and threads at once), runs the
schedule through a thread pool against one service store and serially
against another, and demands the two archives come out byte-identical:
same shared-pool segment files, same per-tenant manifest bytes, verify
clean, no lost or duplicated runs.  This is the whole service invariant
in one sentence — concurrency must be unobservable in the archive.
"""

import json
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.tenants import TenantRegistry
from repro.trace.records import TraceBundle
from storeutil import make_trace_file

TENANTS = ("alice", "bob", "carol")

# A pool of four distinct bundle shapes; any two schedules overlap.
_POOL = [
    dict(rank=0, n=6, name="SYS_write"),
    dict(rank=0, n=6, name="SYS_read"),
    dict(rank=1, n=4, name="SYS_write"),
    dict(rank=2, n=9, name="SYS_open"),
]


def _bundle(spec_idx: int) -> TraceBundle:
    spec = _POOL[spec_idx]
    tf = make_trace_file(**spec)
    return TraceBundle(files={spec["rank"]: tf})


def _archive_fingerprint(root):
    """Everything observable about an archive, as comparable bytes."""
    reg = TenantRegistry(root, create=False)
    segments = {
        p.name: p.read_bytes()
        for p in reg.root_bank.segments_dir.glob("*/*.seg")
    }
    manifests = {}
    for name in reg.list_tenants():
        bank = reg.bank(name, create=False)
        for mp in sorted(bank.manifests_dir.glob("*.json")):
            manifests["%s/%s" % (name, mp.name)] = mp.read_bytes()
    return segments, manifests


schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(TENANTS) - 1),
        st.integers(min_value=0, max_value=len(_POOL) - 1),
    ),
    min_size=2,
    max_size=12,
)


@settings(max_examples=25, deadline=None)
@given(schedule=schedules)
def test_concurrent_ingest_equals_serial(tmp_path_factory, schedule):
    base = tmp_path_factory.mktemp("svc")
    concurrent_root = base / "concurrent"
    serial_root = base / "serial"

    reg_c = TenantRegistry(concurrent_root)
    banks_c = {name: reg_c.bank(name) for name in TENANTS}

    def one_ingest(op):
        tenant_idx, spec_idx = op
        return banks_c[TENANTS[tenant_idx]].ingest_bundle(_bundle(spec_idx))

    with ThreadPoolExecutor(max_workers=min(8, len(schedule))) as pool:
        results = list(pool.map(one_ingest, schedule))

    reg_s = TenantRegistry(serial_root)
    banks_s = {name: reg_s.bank(name) for name in TENANTS}
    for tenant_idx, spec_idx in schedule:
        banks_s[TENANTS[tenant_idx]].ingest_bundle(_bundle(spec_idx))

    seg_c, man_c = _archive_fingerprint(concurrent_root)
    seg_s, man_s = _archive_fingerprint(serial_root)
    # Byte-identical archives: segment pool and every tenant manifest.
    assert seg_c == seg_s
    assert man_c == man_s

    # No lost runs: every (tenant, content) pair in the schedule has its
    # manifest; no duplicated runs: one manifest per distinct pair.
    expected = {
        (TENANTS[t], _run_id_of(results, schedule, (t, s)))
        for t, s in schedule
    }
    assert {
        tuple(key.split("/", 1)) for key in man_c
    } == {(tenant, rid + ".json") for tenant, rid in expected}

    report = reg_c.verify()
    assert report["ok"], json.dumps(report, indent=2)[:2000]


def _run_id_of(results, schedule, op):
    for res, sched_op in zip(results, schedule):
        if tuple(sched_op) == tuple(op):
            return res.run_id
    raise AssertionError("op missing from schedule")

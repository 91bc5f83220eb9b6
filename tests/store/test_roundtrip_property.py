"""Property tests: the archive is a lossless, order-faithful view.

For any bundle, ``encode -> ingest -> query`` must agree with scanning
the in-memory bundle directly, for any worker count: the store is an
*archive*, not a lossy summary.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from storeutil import make_event

from repro.obs.metrics import canonical_json
from repro.store import Query, TraceBank, run_query
from repro.trace.records import TraceBundle, TraceFile

NAMES = ("SYS_read", "SYS_write", "SYS_open")

event_strategy = st.tuples(
    st.sampled_from(NAMES),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=32),
    st.integers(min_value=0, max_value=1 << 20),  # nbytes
)

bundle_strategy = st.dictionaries(
    keys=st.integers(min_value=0, max_value=3),  # ranks
    values=st.lists(event_strategy, min_size=0, max_size=6),
    min_size=1,
    max_size=3,
)


def build_bundle(spec):
    files = {}
    for rank, rows in spec.items():
        events = [
            make_event(name=name, ts=ts, rank=rank, nbytes=nbytes)
            for name, ts, nbytes in rows
        ]
        files[rank] = TraceFile(events, rank=rank, framework="lanl-trace")
    return TraceBundle(files=files, metadata={"workload": "prop"})


def expected_rows(bundle):
    """The plain in-memory scan: what the events query must reproduce."""
    rows = []
    for rank in bundle.files:
        for seq, e in enumerate(bundle.files[rank].events):
            rows.append((e.timestamp, rank, seq, e.name, e.nbytes))
    rows.sort()
    return rows


class TestArchiveRoundtrip:
    @given(spec=bundle_strategy)
    @settings(max_examples=40, deadline=None)
    def test_query_matches_plain_scan(self, spec):
        bundle = build_bundle(spec)
        with tempfile.TemporaryDirectory() as tmp:
            bank = TraceBank(Path(tmp) / "store")
            bank.ingest_bundle(bundle)
            report = run_query(bank, Query(agg="events"))
            got = [
                (r["timestamp"], r["rank"], r["seq"], r["name"], r["nbytes"])
                for r in report["result"]["events"]
            ]
            assert got == expected_rows(bundle)

    @given(spec=bundle_strategy)
    @settings(max_examples=20, deadline=None)
    def test_jobs_never_change_report_bytes(self, spec):
        bundle = build_bundle(spec)
        with tempfile.TemporaryDirectory() as tmp:
            bank = TraceBank(Path(tmp) / "store")
            bank.ingest_bundle(bundle)
            for agg in ("events", "ops", "bytes"):
                q = Query(agg=agg)
                assert canonical_json(run_query(bank, q, jobs=1)) == canonical_json(
                    run_query(bank, q, jobs=4)
                )

    @given(spec=bundle_strategy)
    @settings(max_examples=30, deadline=None)
    def test_load_run_bundle_is_lossless(self, spec):
        bundle = build_bundle(spec)
        with tempfile.TemporaryDirectory() as tmp:
            bank = TraceBank(Path(tmp) / "store")
            r = bank.ingest_bundle(bundle)
            out = bank.load_run_bundle(r.run_id)
            assert sorted(out.files) == sorted(bundle.files)
            for rank in bundle.files:
                assert out.files[rank].events == bundle.files[rank].events

    @given(spec=bundle_strategy)
    @settings(max_examples=20, deadline=None)
    def test_reingest_is_always_a_full_dedup(self, spec):
        bundle = build_bundle(spec)
        with tempfile.TemporaryDirectory() as tmp:
            bank = TraceBank(Path(tmp) / "store")
            first = bank.ingest_bundle(bundle)
            second = bank.ingest_bundle(bundle)
            assert second.run_id == first.run_id
            assert second.new_segments == 0
            assert not second.manifest_new

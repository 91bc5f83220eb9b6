"""Verify must survive the fault plane's corruption corpus.

``repro store verify`` is the archive's last line of defense, so it gets
the same treatment as the codecs: every crash-shaped corruption of a
stored segment must be *reported* (ok=False with a typed error record) —
verify itself must never raise, hang, or call a damaged archive clean.
"""

import pytest

from storeutil import make_bundle

from repro.errors import ReproError
from repro.faults.corrupt import crash_truncation_corpus
from repro.store.bank import TraceBank


@pytest.fixture
def bank(tmp_path):
    bank = TraceBank(tmp_path / "store")
    bank.ingest_bundle(make_bundle(nranks=1, n=12))
    return bank


def test_every_corpus_variant_is_flagged_not_raised(bank):
    sha = bank.disk_segments()[0]
    path = bank.segment_path(sha)
    pristine = path.read_bytes()
    for variant in crash_truncation_corpus(pristine, seed=0, n=24):
        if variant == pristine:
            continue  # identity variant: genuinely clean
        path.write_bytes(variant)
        try:
            report = bank.verify()
        except ReproError as exc:  # pragma: no cover - would be a bug
            pytest.fail("verify raised instead of reporting: %s" % exc)
        assert not report["ok"], "corrupted segment passed verification"
        assert report["errors"], "ok=False but no error records"
        for err in report["errors"]:
            assert err["sha256"] == sha
    path.write_bytes(pristine)
    assert bank.verify()["ok"]


def test_verify_parallel_matches_serial_on_corrupt_archive(bank):
    sha = bank.disk_segments()[0]
    path = bank.segment_path(sha)
    variants = crash_truncation_corpus(path.read_bytes(), seed=1, n=8)
    path.write_bytes(variants[0])
    assert bank.verify(jobs=1) == bank.verify(jobs=3)

"""Pytest set-up for the store tests: the path to the shared
``storeutil`` helpers, and the small archive several files read."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from storeutil import make_bundle  # noqa: E402

from repro.store.bank import TraceBank  # noqa: E402


@pytest.fixture
def archive(tmp_path):
    """Five same-shaped runs; the last one's calls are 4x slower, so
    ``diagnose_archive`` flags it and slices it."""
    bank = TraceBank(tmp_path / "store")
    ids = [
        bank.ingest_bundle(
            make_bundle(dur=0.004 if seed == 4 else 0.001), meta={"seed": seed}
        ).run_id
        for seed in range(5)
    ]
    return bank, ids

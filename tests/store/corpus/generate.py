"""Regenerate the legacy two-format archive in this directory.

The archive holds :func:`storeutil.corpus_bundle` ingested twice: once
as RTBF (row-major Tracefs binary) segments and once as RTCF (columnar)
segments, plus ``expected.json``, the query, DFG and bundle reports the
writing release gave for both runs.  RTCF is read-only in the current
tree, so this script must run against a release that still writes it,
one whose ``TraceBank.ingest_bundle`` takes ``codec=`` (the archive here
was written by commit 3190e05)::

    mkdir -p /tmp/rtcf-writer
    git archive 3190e05 src | tar -x -C /tmp/rtcf-writer
    PYTHONPATH=/tmp/rtcf-writer/src python tests/store/corpus/generate.py

It refuses to overwrite an existing archive.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from dataclasses import replace  # noqa: E402

from storeutil import CORPUS_QUERIES, bundle_json, corpus_bundle  # noqa: E402

from repro.obs.metrics import canonical_json  # noqa: E402
from repro.store import Query, TraceBank, run_query  # noqa: E402
from repro.store.dfg import build_dfg  # noqa: E402


def main() -> int:
    store = HERE / "archive"
    if store.exists():
        print("%s exists; delete it first" % store, file=sys.stderr)
        return 1
    bank = TraceBank(store)
    runs = {
        "rtbf": bank.ingest_bundle(corpus_bundle(), codec="v1").run_id,
        "rtcf": bank.ingest_bundle(corpus_bundle(), codec="v2").run_id,
    }
    expected = {"runs": runs, "reports": {}}
    for label, run_id in runs.items():
        expected["reports"][label] = {
            "queries": [
                run_query(bank, replace(q, runs=(run_id,)))
                for q in CORPUS_QUERIES
            ],
            "dfg": build_dfg(bank, Query.create(runs=[run_id])),
            "bundle": bundle_json(bank.load_run_bundle(run_id)),
        }
    (store / "index.json").unlink()
    (HERE / "expected.json").write_text(canonical_json(expected) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

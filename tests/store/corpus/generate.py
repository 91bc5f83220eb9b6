"""Regenerate the legacy-corpus archive in this directory.

The archive holds :func:`storeutil.corpus_bundle` ingested once, as RTBF
segments, plus ``expected.json``: the query, DFG and bundle reports for
that run.  Commit 3190e05 wrote the committed archive, and the current
tree writes the same files byte for byte (``test_mixed_codec.py``'s
``TestCorpusBytes`` checks this), so it regenerates from this checkout::

    rm -r tests/store/corpus/archive
    PYTHONPATH=src python tests/store/corpus/generate.py

It refuses to overwrite an existing archive.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from dataclasses import replace  # noqa: E402

from storeutil import CORPUS_QUERIES, bundle_json, corpus_bundle  # noqa: E402

from repro.obs.metrics import canonical_json  # noqa: E402
from repro.store.bank import TraceBank  # noqa: E402
from repro.store.dfg import build_dfg  # noqa: E402
from repro.store.query import Query, run_query  # noqa: E402


def main() -> int:
    store = HERE / "archive"
    if store.exists():
        print("%s exists; delete it first" % store, file=sys.stderr)
        return 1
    bank = TraceBank(store)
    run_id = bank.ingest_bundle(corpus_bundle()).run_id
    expected = {
        "runs": {"rtbf": run_id},
        "reports": {
            "rtbf": {
                "queries": [
                    run_query(bank, replace(q, runs=(run_id,)))
                    for q in CORPUS_QUERIES
                ],
                "dfg": build_dfg(bank, Query.create(runs=[run_id])),
                "bundle": bundle_json(bank.load_run_bundle(bank.manifest(run_id))),
            }
        },
    }
    (HERE / "expected.json").write_text(canonical_json(expected) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Simulated history pinned against a known-good tree.

``history_corpus/expected.json`` holds what ``figures --quick``,
``zoo matrix --smoke`` and ``chaos --matrix smoke`` computed at the
commit named in ``history_corpus/generate.py``: elapsed times to the
last bit, archived run ids (which hash every traced event), signature
and replay verdicts, and the chaos report's SHA-256.  A kernel or stack
change that only removes work must leave all of it exactly equal; a
change meant to alter history regenerates the file and says why.
"""

import importlib.util
import json
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "history_corpus"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "history_corpus_generate", CORPUS / "generate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_simulated_history_matches_the_committed_corpus(tmp_path):
    expected = json.loads((CORPUS / "expected.json").read_text("utf-8"))
    got = _generator().collect(tmp_path)
    assert got["figures"] == expected["figures"]
    assert got["zoo"] == expected["zoo"]
    assert got["chaos_report_sha256"] == expected["chaos_report_sha256"]
    assert got == expected


def test_corpus_covers_every_sweep_it_names():
    expected = json.loads((CORPUS / "expected.json").read_text("utf-8"))
    assert sorted(expected["figures"]) == ["2", "3", "4"]
    points = [p for series in expected["figures"].values() for p in series]
    assert len(points) == 6 and all(p["run_id"] for p in points)
    assert len(expected["zoo"]) == 4
    assert all(r["signature_ok"] and r["replay_exact"] for r in expected["zoo"])

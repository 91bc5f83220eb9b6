"""The benchmark's own tests.  Run from the repository root::

    python3 -m pytest perfbench

Every workload runs the pipeline on the tiny inputs: it must finish with
no failed operation and print every metric ``BENCHMARK.json`` lists, by
its name and unit, with a value that is not 0.  A tampered
reference must turn into failed operations, and a directory without
the program's sources must give a non-zero exit and no result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
SEED = 5
#: Per-layer counts that are 0 on a healthy run.
MAY_BE_ZERO = {"service.retries_429"}


def _declared(trace: int):
    from perfbench.run import _bootstrap

    _bootstrap(ROOT)
    from perfbench.core import END_TO_END, per_layer_metrics

    return per_layer_metrics() if trace else END_TO_END


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-4000:]
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, v in result["metrics"].items():
        if not trace:
            assert v["value"] > 0, name
        elif name not in MAY_BE_ZERO:
            assert v["value"] != 0.0, name
    assert not (ROOT / ".perfbench-work").exists()


@pytest.mark.parametrize("trace", [0, 1])
def test_spec_lists_exactly_the_declared_metrics(trace):
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert len(names) == len(set(names))
    assert names == list(_declared(trace))


def test_spec_workloads_are_the_input_families():
    from perfbench.run import _bootstrap

    _bootstrap(ROOT)
    from perfbench.core import CONFIG
    from perfbench.make_refs import FAMILIES

    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(CONFIG["workloads"])
    assert set(names) < set(FAMILIES)


@pytest.mark.parametrize("stage", ["figures", "archive"])
def test_tampered_reference_is_a_failed_operation(stage):
    from perfbench.run import _bootstrap, load_refs

    _bootstrap(ROOT)
    from perfbench.core import CONFIG, run_workload

    refs = copy.deepcopy(load_refs())
    entries = refs["tiny"][str(SEED % int(CONFIG["variants"]))]
    key = sorted(k for k in entries if k.startswith(stage + "/"))[0]
    entries[key] = "tampered"
    out = run_workload("tiny", SEED, 0.0, False, refs=refs,
                       workroot=ROOT / ".perfbench-work",
                       log=lambda _line: None, setup_reps=1)
    assert out["failed"] >= 1 and out["correct"] is False


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

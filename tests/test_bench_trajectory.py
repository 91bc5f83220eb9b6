"""The committed perfbench trajectory and the tool that writes it.

``BENCH_trajectory.jsonl`` holds one line per workload per measured
change (``tools/bench_trajectory.py``).  Every metric it names must be
an end-to-end metric of ``BENCHMARK.json``, in that metric's unit, so a
program can read the file against the benchmark's own contract.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", ROOT / "tools" / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lines():
    text = (ROOT / "BENCH_trajectory.jsonl").read_text("utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def test_trajectory_lines_use_the_benchmarks_metric_names_and_units():
    lines = _lines()
    assert lines
    for line in lines:
        assert line["workload"] in WORKLOADS
        assert line["commit"] and line["parent_commit"]
        assert line["seeds"] == sorted(set(line["seeds"]))
        assert line["metrics"]
        for name, m in line["metrics"].items():
            assert name in UNITS, "%s is not an end-to-end metric" % name
            assert m["unit"] == UNITS[name], name
            assert 0 <= m["wins"] <= m["pairs"] <= len(line["seeds"])
            for side in ("parent", "change"):
                assert m[side]["n"] >= 1 and m[side]["iqr"] >= 0


def _run_file(tmp_path, side, workload, seed, metrics, failed=0):
    path = tmp_path / ("%s-%s-%d.out" % (side, workload, seed))
    result = {
        "correct": True, "attempted": 10, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    path.write_text(
        "workload %s seed %d (variant %d) inputs %s: why\n"
        "e2e sweep_s 1.0\n%s\n" % (workload, seed, seed, workload, json.dumps(result)),
        "utf-8",
    )
    return path


def test_tool_pairs_runs_by_seed_and_reports_median_iqr_and_wins(tmp_path, capsys):
    tool = _tool()
    parent = [_run_file(tmp_path, "parent", "small-io", s, {"sweep_s": v})
              for s, v in enumerate([2.0, 3.0, 4.0, 5.0, 6.0])]
    change = [_run_file(tmp_path, "change", "small-io", s, {"sweep_s": v}, failed=s == 0)
              for s, v in enumerate([1.0, 2.0, 3.0, 4.0, 7.0])]
    assert tool.main(["--commit", "c", "--parent-commit", "p",
                      "--parent", *map(str, parent), "--change", *map(str, change)]) == 0
    (line,) = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert line["workload"] == "small-io" and line["seeds"] == [0, 1, 2, 3, 4]
    assert (line["commit"], line["parent_commit"]) == ("c", "p")
    assert line["failed"] == {"parent": 0, "change": 1}
    assert list(line["metrics"]) == ["sweep_s"]
    m = line["metrics"]["sweep_s"]
    assert m["parent"] == {"median": 4.0, "iqr": 2.0, "n": 5}
    assert m["change"] == {"median": 3.0, "iqr": 2.0, "n": 5}
    assert (m["unit"], m["pairs"], m["wins"]) == ("s", 5, 4)


def test_tool_refuses_a_seed_given_twice_and_a_file_without_a_result(tmp_path):
    tool = _tool()
    a = _run_file(tmp_path, "parent", "large-io", 1, {"wall_s": 1.0})
    with pytest.raises(ValueError, match="given twice"):
        tool.summarize([("parent",) + tool.read_run(a)] * 2, SPEC, "c", "p")
    bad = tmp_path / "bad.out"
    bad.write_text("workload large-io seed 1 (variant 1) inputs x: y\n{}\n", "utf-8")
    with pytest.raises(ValueError, match="not a perfbench result"):
        tool.read_run(bad)

"""Summarize perfbench parent/change runs as one JSON line per workload.

Usage, from the root of a checkout::

    python3 tools/bench_trajectory.py --commit C --parent-commit P \\
        --parent parent-*.out --change change-*.out >> BENCH_trajectory.jsonl

Each input file is the saved stdout of one ``perfbench/run.py --trace 0``
run: its first line names the workload and seed, its last line is the
result JSON.  Runs of the two sides with the same workload and seed form
a pair.  For each workload the output line holds the commits, the seeds,
the failed-operation totals, and per end-to-end metric its unit, the
median and interquartile range of each side, and ``wins``: the pairs in
which the change was better, in the direction ``BENCHMARK.json`` gives.

``--commit`` names the change: a commit id, or, for a change measured
before it was committed, ``src-tree:<id>`` with the git tree id of its
``src/`` (``git write-tree --prefix=src/`` on the staged tree), which
``git rev-parse <commit>:src`` reproduces once it is committed.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
_HEADER = re.compile(r"^workload (\S+) seed (-?\d+) ")


def read_run(path: Path) -> Tuple[str, int, dict]:
    """``(workload, seed, result)`` from one saved perfbench stdout."""
    lines = [ln for ln in path.read_text("utf-8").splitlines() if ln.strip()]
    match = _HEADER.match(lines[0]) if lines else None
    if match is None:
        raise ValueError("%s: first line does not name a workload and seed" % path)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("%s: last line is not a perfbench result" % path)
    return match.group(1), int(match.group(2)), result


def stats(values: List[float]) -> dict:
    """Median and interquartile range (inclusive method; IQR 0 for one run)."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "iqr": q3 - q1, "n": len(values)}


def summarize(
    runs: Iterable[Tuple[str, str, int, dict]],
    spec: dict,
    commit: str,
    parent_commit: str,
) -> List[dict]:
    """One line per workload from ``(side, workload, seed, result)`` runs.

    ``side`` is ``"parent"`` or ``"change"``.  A seed run twice on one
    side is an error: pairs would be ambiguous.
    """
    by_wl: Dict[str, Dict[str, Dict[int, dict]]] = {}
    for side, workload, seed, result in runs:
        sides = by_wl.setdefault(workload, {"parent": {}, "change": {}})
        if seed in sides[side]:
            raise ValueError("%s %s seed %d given twice" % (side, workload, seed))
        sides[side][seed] = result
    lines = []
    for workload in sorted(by_wl):
        sides = by_wl[workload]
        metrics = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            values = {
                side: {s: r["metrics"][name]["value"]
                       for s, r in runs_.items() if name in r["metrics"]}
                for side, runs_ in sides.items()
            }
            if not values["parent"] and not values["change"]:
                continue
            pv, cv = values["parent"], values["change"]
            pairs = sorted(set(pv) & set(cv))
            if m["better"] == "lower":
                wins = sum(cv[s] < pv[s] for s in pairs)
            else:
                wins = sum(cv[s] > pv[s] for s in pairs)
            metrics[name] = {"unit": m["unit"], "pairs": len(pairs), "wins": wins}
            for side, vals in values.items():
                metrics[name][side] = stats([vals[s] for s in sorted(vals)]) if vals else None
        lines.append({
            "commit": commit,
            "parent_commit": parent_commit,
            "workload": workload,
            "seeds": sorted(set(sides["parent"]) | set(sides["change"])),
            "failed": {side: sum(int(r["failed"]) for r in runs_.values())
                       for side, runs_ in sides.items()},
            "metrics": metrics,
        })
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--commit", required=True, help="the change's commit or src tree id")
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--parent", nargs="+", type=Path, required=True, metavar="FILE")
    ap.add_argument("--change", nargs="+", type=Path, required=True, metavar="FILE")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    runs = [
        (side,) + read_run(path)
        for side, paths in (("parent", args.parent), ("change", args.change))
        for path in paths
    ]
    for line in summarize(runs, spec, args.commit, args.parent_commit):
        print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

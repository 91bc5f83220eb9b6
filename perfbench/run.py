"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small-io|large-io \\
        --seed N --seconds S --trace 0|1

Every workload runs the same pipeline (the ``figures`` sweep points,
the in-process ``archive``, the HTTP ``service``) on its own input
family.  With ``--trace 0`` the last stdout line is one JSON object
holding every end-to-end metric named in ``BENCHMARK.json``; with
``--trace 1`` it holds every per-layer metric, from a run that
alternates untraced and traced rounds.  Lines before it show raw and
drift-normalized seconds side by side.  Exits non-zero, printing no
result, when the program's sources (``src/repro``) are not in the
working directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
from pathlib import Path


def _bootstrap(root: Path) -> None:
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            "perfbench: no src/repro under %s; run from a checkout's root" % root
        )
    for path in (str(src), str(root)):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text("utf-8"))


def load_refs() -> dict:
    return json.loads((Path(__file__).resolve().parent / "refs.json").read_text("utf-8"))


def result_line(spec: dict, outcome: dict, trace: bool) -> str:
    """The final JSON line: the spec's metrics, named and unit-tagged.

    A metric the run failed to produce was already counted as a failed
    operation; it is left out of the line.
    """
    values = outcome["layers"] if trace else outcome["e2e"]
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
        if m["name"] in values and math.isfinite(values[m["name"]])
    }
    return json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input size (tiny, the same for every workload, is "
                         "for the benchmark's own tests)")
    args = ap.parse_args(argv)
    root = Path.cwd()
    _bootstrap(root)
    spec = load_spec(root)
    from perfbench.core import CONFIG, run_workload

    table = CONFIG["workloads"]
    if args.workload not in table:
        ap.error("unknown workload %r (known: %s)" % (args.workload, ", ".join(table)))
    # One CPU for the benchmark and the server it starts: the drift probe
    # then measures the CPU the work runs on, and the other stays quiet.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A SIGTERM unwinds like an error, so the server is stopped and
    # waited for on that path too.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(128 + signal.SIGTERM))
    family = "tiny" if args.scale == "tiny" else args.workload
    print("workload %s seed %d (variant %d) inputs %s: %s"
          % (args.workload, args.seed, args.seed % CONFIG["variants"], family,
             table[args.workload]["why"]))
    outcome = run_workload(
        family, args.seed, args.seconds, bool(args.trace),
        refs=load_refs(), workroot=root / ".perfbench-work",
    )
    for name, value in sorted(outcome["e2e"].items()):
        print("e2e %-22s %.6f" % (name, value))
    for name, value in sorted(outcome["layers"].items()):
        print("layer %-30s %.6f" % (name, value))
    sys.stdout.flush()
    print(result_line(spec, outcome, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

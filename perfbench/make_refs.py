"""Regenerate ``perfbench/refs.json``: the outputs each shipped input must give.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/make_refs.py [--family small-io|large-io|tiny ...]

Each (input family, variant) is set up once and run for one round in
recording mode, so the references come from the very code path the
benchmark later checks.  Families not regenerated are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.run import _bootstrap  # noqa: E402

#: Every input family references ship for.
FAMILIES = ("small-io", "large-io", "tiny")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--family", action="append", choices=FAMILIES)
    args = ap.parse_args()
    root = Path.cwd()
    _bootstrap(root)
    from perfbench.core import CONFIG, run_workload

    path = HERE / "refs.json"
    refs = json.loads(path.read_text("utf-8")) if path.is_file() else {}
    for family in args.family or FAMILIES:
        for variant in range(int(CONFIG["variants"])):
            out = run_workload(family, variant, 0.0, False, refs=None,
                               workroot=root / ".perfbench-work",
                               log=lambda _line: None, setup_reps=1)
            if not out["correct"]:
                raise SystemExit("%s/%d failed while recording" % (family, variant))
            refs.setdefault(family, {})[str(variant)] = out["ctx"].expected
            print("%s variant %d: %d references"
                  % (family, variant, len(out["ctx"].expected)), flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

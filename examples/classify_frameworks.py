#!/usr/bin/env python3
"""The taxonomy case study: classify all three frameworks (paper §4).

Renders Table 2, diffs two frameworks, and runs the requirements →
recommendation engine for three user profiles, reproducing the paper's
Conclusion (§5).

Run:  python examples/classify_frameworks.py
"""

from repro.core.casestudy import paper_table2
from repro.core.compare import compare_classifications
from repro.core.requirements import Requirements, recommend
from repro.core.summary_table import render_summary_table


def main() -> None:
    classifications = list(paper_table2().values())

    print("=== Table 2: classification summary ===\n")
    print(render_summary_table(classifications))

    print("=== LANL-Trace vs //TRACE (cell-level diff) ===\n")
    lanl = classifications[0]
    ptrace = classifications[2]
    print(compare_classifications(lanl, ptrace).render())

    profiles = {
        "researcher who needs accurate replayable traces of a parallel app": Requirements(
            need_replayable=True, need_parallel_fs=True
        ),
        "site releasing anonymized traces to collaborators": Requirements(
            min_anonymization=3
        ),
        "developer who wants quick installation and skew-corrected timings": Requirements(
            max_install_difficulty=3, need_skew_drift_accounting=True
        ),
    }
    for label, reqs in profiles.items():
        print("=== Recommendation for: %s ===" % label)
        for rec in recommend(reqs, classifications):
            print(rec.render())
        print()


if __name__ == "__main__":
    main()

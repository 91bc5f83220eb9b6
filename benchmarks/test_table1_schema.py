"""Table 1 — the taxonomy summary-table template.

Regenerates the single-framework reference table of §3.2 and checks the
schema matches the paper's thirteen rows with the paper's value domains.
"""

from repro.core.casestudy import lanl_trace_classification
from repro.core.features import FEATURES, Feature
from repro.core.summary_table import render_summary_table


def test_table1_template(once):
    table = once(render_summary_table, lanl_trace_classification())
    print("\n" + table)
    lines = table.strip().splitlines()
    # header + separator + 13 feature rows
    assert len(lines) == 2 + 13
    for feature in FEATURES:
        assert feature.display_name in table
    # the paper's Table 1 row order
    order = [f.display_name for f in FEATURES]
    assert order[0] == "Parallel file system compatibility"
    assert order[-1] == "Elapsed time overhead"


def test_table1_value_domains():
    """Each domain renders in the bracketed style Table 1 documents."""
    from repro.core.values import (
        AnonymizationLevel,
        GranularityControl,
        Likert,
        TraceFormat,
        YesNo,
    )

    assert YesNo.YES.render() in ("Yes", "No")
    assert Likert(1, "V. Easy").render() == "1 (V. Easy)"
    assert Likert(5, "V. Difficult").render() == "5 (V. Difficult)"
    assert AnonymizationLevel(0).render() == "No"
    assert AnonymizationLevel(5).render() == "5 (V. Advanced)"
    assert GranularityControl(0).render() == "No"
    assert TraceFormat.BINARY.render() == "Binary"
    assert TraceFormat.HUMAN_READABLE.render() == "Human readable"

"""Trace data model, codecs, anonymization, and merging.

This package is the "single trace-data API" sketched in the paper's future
work (§6): one event model shared by all three frameworks, with codecs for
the formats the taxonomy distinguishes (human-readable vs. binary, §3.1
"Trace data format"), anonymization engines (§3.1 "Anonymization"), and a
merge tool that aggregates heterogeneous per-node traces onto one timeline.
"""

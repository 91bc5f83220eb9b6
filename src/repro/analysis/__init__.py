"""Trace analysis tools (the taxonomy's "Analysis tools" feature, §3.1).

* :mod:`repro.analysis.summary` — per-function call counts and total time
  (the third LANL-Trace output of Figure 1);
* :mod:`repro.analysis.skew` — estimate per-node clock skew and drift from
  barrier timing stamps and correct local timestamps to a global timeline;
* :mod:`repro.analysis.bandwidth` — bandwidth/overhead arithmetic over
  traces and runs;
* :mod:`repro.analysis.timeline` — merge per-node traces into one
  skew-corrected global event timeline;
* :mod:`repro.analysis.dependencies` — inter-node dependency graphs
  (//TRACE's "Reveals dependencies" output) as writer→reader edge dicts;
* :mod:`repro.analysis.phases` — compute/I-O phase segmentation of a
  rank's timeline (burst detection).
"""

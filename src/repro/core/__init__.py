"""The I/O Tracing Framework taxonomy (the paper's contribution, §3).

The taxonomy has two elements:

* **feature classification** (§3.1) — thirteen features determined by
  inspection of a framework, each with a typed value domain
  (:mod:`repro.core.features`, :mod:`repro.core.values`), assembled into a
  validated :class:`~repro.core.classification.FrameworkClassification`;
* **overhead measurement** (§3.1) — empirical elapsed-time / bandwidth
  overhead via a synthetic benchmark (:mod:`repro.core.overhead`, driving
  :mod:`repro.harness`).

Presentation and use:

* :mod:`repro.core.summary_table` renders Table 1 (the template) and
  Table 2 (the case-study comparison);
* :mod:`repro.core.compare` diffs classifications;
* :mod:`repro.core.requirements` turns user tracing requirements into a
  ranked framework recommendation (the Conclusion's use-case);
* :mod:`repro.core.casestudy` holds the paper's Table 2 values for
  LANL-Trace, Tracefs and //TRACE.
"""

"""Cluster-wide fault injection: schedules, the fault plane, chaos runs.

``repro.faults`` is the simulator-wide *fault plane*: one declarative,
seeded :class:`FaultSchedule` drives node crashes, network partitions,
link degradation and disk fault storms through hooks in the DES kernel,
the cluster network, the simulated OS and the VFS — deterministically,
off named RNG streams, so fault runs stay byte-identical across
``jobs=1``/``jobs=N``/warm-cache.  :class:`ScheduledFaultFS` is the one
disk-fault layer.  A faulted run is an ordinary
:func:`~repro.harness.experiment.run_once` given a schedule; the chaos
matrices run through the sweep executor and
:func:`~repro.faults.chaos.chaos_annotation` annotates their points.
"""

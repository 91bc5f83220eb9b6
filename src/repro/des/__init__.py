"""Discrete-event simulation (DES) kernel.

This is the substrate on which the simulated cluster, operating system,
file systems, and MPI runtime are built.  It is a small, deterministic,
generator-coroutine kernel in the style of SimPy:

* a :class:`~repro.des.simulator.Simulator` owns virtual time and an event
  queue;
* simulated activities are plain Python generators spawned as
  :class:`~repro.des.process.Process` objects;
* processes ``yield`` commands — :class:`~repro.des.events.Timeout`,
  :class:`~repro.des.events.Completion`, :class:`~repro.des.events.AllOf` —
  and are resumed when the command is satisfied;
* contention points (disks, network links, file servers) are modelled with
  :class:`~repro.des.resources.Resource`; message passing between processes
  uses :class:`~repro.des.resources.Store`.

Determinism: given the same seed and the same spawn order, a simulation is
bit-for-bit reproducible.  All randomness must come through
:class:`~repro.des.rand.RandomStreams`.
"""

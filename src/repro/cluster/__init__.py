"""Simulated cluster substrate.

Models the hardware platform of the paper's evaluation (§4.1.2): a
32-processor Linux cluster with a gigabit Ethernet interconnect, where each
compute node has its own imperfect clock.  The pieces:

* :class:`~repro.cluster.clock.Clock` — per-node clock with *skew* (constant
  offset) and *drift* (rate error), the phenomena LANL-Trace's timing jobs
  exist to expose (§3.1 "Accounts for time drift and skew");
* :class:`~repro.cluster.node.Node` — a compute node: clock, NIC, CPU cost
  parameters;
* :class:`~repro.cluster.network.Network` — shared interconnect with
  per-NIC links and latency/bandwidth costs;
* :class:`~repro.cluster.cluster.Cluster` — assembly.

Their parameters (:class:`~repro.machine.ClusterConfig`,
:class:`~repro.machine.NodeParams`, :class:`~repro.machine.NetworkConfig`)
are plain data in :mod:`repro.machine`.
"""

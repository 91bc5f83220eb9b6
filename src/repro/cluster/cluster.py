"""Cluster assembly: configuration plus construction of the node set.

A :class:`Cluster` owns the simulator, the nodes (with randomly drawn clock
skew/drift from the config's distributions), and the interconnect.  Storage
systems and MPI runtimes attach on top of it — see
:mod:`repro.simfs.pfs` and :mod:`repro.simmpi.runtime`.
"""

from __future__ import annotations

from repro.cluster.clock import Clock
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.des.simulator import Simulator
from repro.machine import ClusterConfig

__all__ = ["Cluster"]


class Cluster:
    """A simulated cluster: simulator + nodes + interconnect."""

    def __init__(self, config: ClusterConfig | None = None):
        self.config = config or ClusterConfig()
        self.sim = Simulator(seed=self.config.seed)
        rng = self.sim.random.stream("cluster.clocks")
        self.nodes: list[Node] = []
        for i in range(self.config.n_nodes):
            clock = Clock(
                skew=float(rng.normal(0.0, self.config.clock_skew_stddev))
                if self.config.clock_skew_stddev > 0
                else 0.0,
                drift=float(rng.normal(0.0, self.config.clock_drift_stddev))
                if self.config.clock_drift_stddev > 0
                else 0.0,
                epoch=self.config.clock_epoch,
            )
            self.nodes.append(Node(self.sim, i, self.config.node_params, clock))
        self.network = Network(self.sim, self.config.network)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, index: int) -> Node:
        """The ``index``-th compute node."""
        return self.nodes[index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Cluster %d nodes, seed=%d>" % (len(self.nodes), self.config.seed)

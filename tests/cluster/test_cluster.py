"""Cluster assembly, node cost model, and network transfer tests."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.network import Network
from repro.des.events import Timeout
from repro.des.simulator import Simulator
from repro.machine import ClusterConfig, NetworkConfig, NodeParams
from repro.units import MiB


class TestNodeParams:
    def test_defaults_valid(self):
        p = NodeParams()
        assert p.syscall_cost > 0
        assert p.mem_bandwidth > 0

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            NodeParams(syscall_cost=-1e-6)
        with pytest.raises(ValueError):
            NodeParams(mem_bandwidth=0)


class TestNode:
    def test_local_clock_used_for_timestamps(self):
        cfg = ClusterConfig(n_nodes=2, clock_skew_stddev=1.0, seed=3)
        cluster = Cluster(cfg)
        a, b = cluster.nodes
        # At true time zero, nodes disagree (with overwhelming probability
        # for a 1-second skew stddev and this fixed seed).
        assert a.now_local() != b.now_local()

    def test_compute_scales_with_cpu_factor(self):
        cluster = Cluster(ClusterConfig(n_nodes=1))
        node = cluster.node(0)
        sim = cluster.sim

        def body():
            yield from node.compute(1.0)
            return sim.now

        assert sim.run_process(body()) == pytest.approx(1.0)

        cluster2 = Cluster(ClusterConfig(n_nodes=1))
        node2 = cluster2.node(0)
        node2.cpu_factor = 2.0

        def body2():
            yield from node2.compute(1.0)
            return cluster2.sim.now

        assert cluster2.sim.run_process(body2()) == pytest.approx(2.0)

    def test_copy_cost_is_linear_and_unscaled(self):
        cluster = Cluster(ClusterConfig(n_nodes=1))
        node = cluster.node(0)
        one = node.copy_cost(1 * MiB)
        node.cpu_factor = 3.0
        assert node.copy_cost(2 * MiB) == pytest.approx(2 * one)


class TestClusterConfig:
    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_nodes=0)

    def test_negative_stddev_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(clock_skew_stddev=-0.1)

    def test_same_seed_same_clocks(self):
        a = Cluster(ClusterConfig(n_nodes=4, seed=9))
        b = Cluster(ClusterConfig(n_nodes=4, seed=9))
        for na, nb in zip(a.nodes, b.nodes):
            assert na.clock.skew == nb.clock.skew
            assert na.clock.drift == nb.clock.drift

    def test_different_seed_different_clocks(self):
        a = Cluster(ClusterConfig(n_nodes=4, seed=1))
        b = Cluster(ClusterConfig(n_nodes=4, seed=2))
        assert any(
            na.clock.skew != nb.clock.skew for na, nb in zip(a.nodes, b.nodes)
        )

    def test_perfect_clocks_option(self):
        c = Cluster(ClusterConfig(n_nodes=3, clock_skew_stddev=0, clock_drift_stddev=0))
        for node in c.nodes:
            assert node.clock.skew == 0.0
            assert node.clock.drift == 0.0


class TestNetwork:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(link_bandwidth=0)
        with pytest.raises(ValueError):
            NetworkConfig(latency=-1)
        with pytest.raises(ValueError):
            NetworkConfig(fabric_streams=0)

    def test_transfer_time_includes_serialization_and_latency(self):
        cluster = Cluster(
            ClusterConfig(
                n_nodes=1,
                network=NetworkConfig(link_bandwidth=100 * MiB, latency=1e-3),
            )
        )
        sim = cluster.sim
        node = cluster.node(0)

        def body():
            yield from cluster.network.transfer(node.nic, 100 * MiB)
            return sim.now

        # 1 second serialization + 1ms latency
        assert sim.run_process(body()) == pytest.approx(1.001)
        assert cluster.network.bytes_moved == 100 * MiB
        assert cluster.network.messages == 1

    def test_same_sender_serializes_on_nic(self):
        cluster = Cluster(
            ClusterConfig(
                n_nodes=1,
                network=NetworkConfig(link_bandwidth=100 * MiB, latency=0.0),
            )
        )
        sim = cluster.sim
        node = cluster.node(0)
        done = []

        def sender(tag):
            yield from cluster.network.transfer(node.nic, 50 * MiB)
            done.append((sim.now, tag))

        sim.spawn(sender("a"), name="a")
        sim.spawn(sender("b"), name="b")
        sim.run()
        # 0.5s each, serialized on the single NIC
        assert done == [(pytest.approx(0.5), "a"), (pytest.approx(1.0), "b")]

    def test_fabric_caps_concurrent_streams(self):
        cfg = ClusterConfig(
            n_nodes=4,
            network=NetworkConfig(link_bandwidth=100 * MiB, latency=0.0, fabric_streams=2),
        )
        cluster = Cluster(cfg)
        sim = cluster.sim
        ends = []

        def sender(i):
            yield from cluster.network.transfer(cluster.node(i).nic, 100 * MiB)
            ends.append(sim.now)

        for i in range(4):
            sim.spawn(sender(i), name="s%d" % i)
        sim.run()
        # 4 one-second transfers through 2 fabric slots: two waves.
        assert sorted(ends) == pytest.approx([1.0, 1.0, 2.0, 2.0])

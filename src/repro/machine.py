"""The simulated machine's description: plain, frozen configuration data.

Every parameter of the paper's testbed (§4.1.2) lives here, apart from
the code that simulates it:

* :class:`NodeParams` — per-node CPU/OS costs (:mod:`repro.cluster.node`);
* :class:`NetworkConfig` — the interconnect (:mod:`repro.cluster.network`);
* :class:`ClusterConfig` — node count, seed, clock imperfection
  (:mod:`repro.cluster.cluster`);
* :class:`DiskParams` — one spindle (:mod:`repro.simfs.blockdev`);
* :class:`PFSParams` — the parallel file system (:mod:`repro.simfs.pfs`);
* :class:`TestbedConfig` — the whole machine
  (:func:`repro.harness.testbed.build_testbed`).

The module imports nothing but :mod:`dataclasses` and :mod:`repro.units`,
so describing a machine — to key a run-cache lookup, say — never loads
the simulator.  The run cache keys on each class's module and name
(:func:`repro.harness.runcache.spec_key`), so moving a class out of this
module changes every cache key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.units import KiB, MiB

__all__ = [
    "NodeParams",
    "NetworkConfig",
    "ClusterConfig",
    "DiskParams",
    "PFSParams",
    "TestbedConfig",
]


@dataclass(frozen=True)
class NodeParams:
    """Per-node CPU/OS cost model.

    These are the software costs a tracing framework perturbs.  Values are
    order-of-magnitude realistic for the paper's era (Linux 2.6.14 on
    commodity hardware) — what matters for reproduction is their *ratio* to
    transfer costs, which sets where overhead curves bend.

    Attributes
    ----------
    syscall_cost:
        Fixed kernel entry/exit cost per system call, seconds.
    libcall_cost:
        Fixed user-space cost per traced library call (cheaper than a
        syscall — no kernel crossing).
    mem_bandwidth:
        User/kernel copy bandwidth in bytes/second; payload copies cost
        ``nbytes / mem_bandwidth``.
    """

    syscall_cost: float = 3e-6
    libcall_cost: float = 1e-6
    mem_bandwidth: float = 800.0 * MiB

    def __post_init__(self) -> None:
        if self.syscall_cost < 0 or self.libcall_cost < 0:
            raise ValueError("costs must be non-negative")
        if self.mem_bandwidth <= 0:
            raise ValueError("mem_bandwidth must be positive")


@dataclass(frozen=True)
class NetworkConfig:
    """Interconnect parameters.

    Defaults approximate gigabit Ethernet: ~112 MiB/s per link, 60 µs
    small-message latency, and a fabric that sustains 16 concurrent
    full-rate streams before saturating.
    """

    link_bandwidth: float = 112.0 * MiB
    latency: float = 60e-6
    fabric_streams: int = 16

    def __post_init__(self) -> None:
        if self.link_bandwidth <= 0:
            raise ValueError("link_bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.fabric_streams < 1:
            raise ValueError("fabric_streams must be >= 1")


@dataclass(frozen=True)
class ClusterConfig:
    """Shape and imperfection parameters of a simulated cluster.

    Attributes
    ----------
    n_nodes:
        Number of compute nodes (the paper ran 32 processors).
    seed:
        Root seed for all randomness in the simulation.
    clock_skew_stddev:
        Standard deviation of the per-node constant clock offset, seconds.
        Commodity clusters of the era commonly disagreed by tens of
        milliseconds to seconds when NTP was loose.
    clock_drift_stddev:
        Standard deviation of the per-node fractional rate error.  Crystal
        oscillators drift on the order of 1e-6 .. 1e-4 (1–100 ppm).
    clock_epoch:
        Shared wall-clock base for local timestamps (Unix-epoch-like).
    node_params:
        CPU/OS cost model applied to every node.
    network:
        Interconnect parameters.
    """

    n_nodes: int = 32
    seed: int = 0
    clock_skew_stddev: float = 0.05
    clock_drift_stddev: float = 2e-5
    clock_epoch: float = 1_159_808_000.0
    node_params: NodeParams = field(default_factory=NodeParams)
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        if self.clock_skew_stddev < 0 or self.clock_drift_stddev < 0:
            raise ValueError("clock imperfection stddevs must be non-negative")


@dataclass(frozen=True)
class DiskParams:
    """Mechanical/transfer characteristics of one spindle (2007-era SATA).

    Attributes
    ----------
    seek_time:
        Average head seek for a non-sequential access, seconds.
    settle_time:
        Rotational settle charged on every access (half-rotation average).
    stream_bandwidth:
        Sustained sequential transfer rate, bytes/second.
    """

    seek_time: float = 8e-3
    settle_time: float = 2e-3
    stream_bandwidth: float = 60.0 * MiB

    def __post_init__(self) -> None:
        if self.seek_time < 0 or self.settle_time < 0:
            raise ValueError("seek/settle times must be non-negative")
        if self.stream_bandwidth <= 0:
            raise ValueError("stream_bandwidth must be positive")

    def service_time(self, nbytes: int, sequential: bool) -> float:
        """Raw service time for one extent, excluding queueing."""
        t = nbytes / self.stream_bandwidth + self.settle_time
        if not sequential:
            t += self.seek_time
        return t


@dataclass(frozen=True)
class PFSParams:
    """Parallel file system shape and cost parameters.

    Attributes
    ----------
    n_servers:
        Storage servers data is striped over.
    stripe_width:
        File striping unit across servers (bytes).
    server_threads:
        Concurrent requests each server services.
    rpc_overhead:
        Server CPU per request.
    drives_per_server:
        Spindles in each server's RAID-5 array (252 total in the paper).
    raid_stripe_width:
        RAID-5 stripe unit inside each server (the paper's 64 KiB).
    extent_lock_time:
        Serialization cost per write to a *shared* file (distributed
        extent/range lock management).  Charged only when more than one
        client node has the file open — the N-to-1 patterns.
    disk:
        Per-spindle characteristics.
    """

    n_servers: int = 8
    stripe_width: int = 64 * KiB
    server_threads: int = 4
    rpc_overhead: float = 30e-6
    drives_per_server: int = 31
    raid_stripe_width: int = 64 * KiB
    extent_lock_time: float = 200e-6
    disk: DiskParams = DiskParams()

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError("need at least one storage server")
        if self.stripe_width <= 0:
            raise ValueError("stripe_width must be positive")
        if self.server_threads < 1:
            raise ValueError("server_threads must be >= 1")


@dataclass(frozen=True)
class TestbedConfig:
    """Everything needed to rebuild the machine deterministically."""

    __test__ = False  # not a pytest test class, despite the name

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    pfs: PFSParams = field(default_factory=PFSParams)
    pfs_mount: str = "/pfs"
    nfs_mount: str = "/home"
    scratch_mount: str = "/tmp"
    with_nfs: bool = True
    with_scratch: bool = True

    def with_seed(self, seed: int) -> "TestbedConfig":
        """A copy of this config with the cluster seed replaced."""
        return replace(self, cluster=replace(self.cluster, seed=seed))

"""Shared-interconnect model.

The paper's testbed used "a gigabit ethernet-over-copper interconnect"
(§4.1.2).  We model it as:

* one link (NIC) per endpoint with configurable bandwidth — transfers from
  the same node serialize on its NIC;
* a shared switch fabric with aggregate capacity — when many nodes push at
  once, the fabric becomes the bottleneck;
* a fixed per-message latency.

A transfer holds the sender's NIC for ``nbytes / link_bandwidth`` and one
fabric slot for ``nbytes / fabric_bandwidth_per_slot``; delivery completes
after an additional propagation latency.  This two-stage model is coarse
but produces the right macroscopic behaviour: per-message costs that
amortize with message size, and contention that scales with offered load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from repro.des.resources import Resource
from repro.obs.tracepoints import STATE as _TELEMETRY
from repro.units import MiB

__all__ = ["Network", "NetworkConfig"]


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


class Network:
    """The cluster interconnect: per-sender NIC serialization + shared fabric."""

    def __init__(self, sim: Any, config: NetworkConfig | None = None):
        self.sim = sim
        self.config = config or NetworkConfig()
        self.fabric = Resource(
            sim, capacity=self.config.fabric_streams, name="fabric"
        )
        self._bytes_moved = 0
        self._messages = 0

    def transfer_time(self, nbytes: int) -> float:
        """Serialization time of ``nbytes`` on one link (excludes latency)."""
        return nbytes / self.config.link_bandwidth

    def transfer(self, sender_nic: Resource, nbytes: int) -> Generator[Any, Any, None]:
        """Sub-activity: move ``nbytes`` from a sender onto the fabric.

        Holds the sender's NIC and one fabric slot for the serialization
        time, then waits propagation latency.  Use with ``yield from``.
        """
        serialization = self.transfer_time(nbytes)
        plane = self.sim.fault_plane
        if plane is not None:
            # Partition stalls, latency spikes and packet-drop retransmits
            # happen before the NIC is held, so degraded senders don't
            # serialize healthy traffic behind them.
            yield from plane.network_gate(sender_nic, nbytes)
        col = _TELEMETRY.collector
        t0 = self.sim.now if col is not None else 0.0
        if not sender_nic.try_acquire():
            yield sender_nic.acquire()
        if col is not None:
            col.net_nic(sender_nic.name, self.sim.now, sender_nic.in_use)
        try:
            if not self.fabric.try_acquire():
                yield self.fabric.acquire()
            if col is not None:
                col.net_fabric(self.sim.now, self.fabric.in_use)
            try:
                if serialization > 0:
                    yield serialization
            finally:
                self.fabric.release()
                if col is not None:
                    col.net_fabric(self.sim.now, self.fabric.in_use)
        finally:
            sender_nic.release()
            if col is not None:
                col.net_nic(sender_nic.name, self.sim.now, sender_nic.in_use)
        if self.config.latency > 0:
            yield self.config.latency
        self._bytes_moved += nbytes
        self._messages += 1
        if col is not None:
            col.net_transfer(nbytes, t0, self.sim.now - t0)

    # -- accounting -----------------------------------------------------------

    @property
    def bytes_moved(self) -> int:
        return self._bytes_moved

    @property
    def messages(self) -> int:
        return self._messages

"""Execution of a :class:`~repro.faults.schedule.FaultSchedule`.

The :class:`FaultPlane` is the one object the whole simulator consults
about injected misbehaviour.  ``install()`` wires it into a built
testbed: it hangs itself off ``Simulator.fault_plane`` (the hook the
network, the syscall dispatcher and the simfs layer check), schedules the
crash/restart firings, and interposes a :class:`ScheduledFaultFS` over
every mount a disk fault targets.

Determinism contract
--------------------
The plane is *static-window* wherever possible: "is node N down at time
t?", "is this link degraded?", "is this mount inside a storm window?" are
pure functions of the immutable schedule and ``sim.now`` — no state, no
draws.  The only stochastic faults (packet drops, EIO storms) draw from
two dedicated named RNG streams, ``faults.net`` and ``faults.disk``, and
only *inside* their windows.  Named streams are independent by
construction (:class:`~repro.des.rand.RandomStreams`), so a fault run
never perturbs the cluster's clock draws or any other subsystem — and a
no-fault run with the plane installed is byte-identical to one without
it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import FaultError, InjectedIOError, NodeCrashed
from repro.faults.schedule import (
    FOREVER,
    DiskErrorStorm,
    DiskSlowdown,
    FaultSchedule,
    LinkDegradation,
    NetworkPartition,
    NodeCrash,
)
from repro.obs.tracepoints import STATE as _TELEMETRY
from repro.simfs.stackable import StackableFS

__all__ = ["FaultPlane", "ScheduledFaultFS", "install_fault_plane"]


def _in_window(windows: List[Tuple[float, float]], now: float) -> Optional[float]:
    """The end of the window containing ``now``, or None."""
    for start, end in windows:
        if start <= now < end:
            return end
    return None


class FaultPlane:
    """Live executor of one fault schedule on one simulated machine."""

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self.sim: Any = None
        #: (sim_time, kind, detail) in firing order — the deterministic
        #: fault history the chaos report and tests compare byte-for-byte.
        self.fault_log: List[Tuple[float, str, str]] = []
        #: injection counters ("node.crashes", "net.drops", ...)
        self.counters: Dict[str, int] = {}
        self._nodes: List[Any] = []
        self._nic_owner: Dict[int, int] = {}
        self._rank_procs: Dict[int, List[Tuple[Any, int]]] = {}
        self._crash_listeners: List[Callable[[int, float, List[int]], None]] = []
        self._down_windows = schedule.node_down_windows()
        self._partition_windows: Dict[int, List[Tuple[float, float]]] = {}
        for ev in schedule.select(NetworkPartition):
            for node in ev.nodes:
                self._partition_windows.setdefault(node, []).append(ev.window)
        self._link_events: Dict[int, List[LinkDegradation]] = {}
        for ev in schedule.select(LinkDegradation):
            self._link_events.setdefault(ev.node, []).append(ev)
        self._net_rng: Any = None
        self._installed = False

    # -- wiring ------------------------------------------------------------

    def install(self, cluster: Any, vfs: Any = None) -> "FaultPlane":
        """Attach this plane to a built cluster (and optionally its VFS).

        Idempotence is deliberately *not* supported: a plane binds to one
        simulator's RNG streams and event queue.  Build a fresh plane per
        run — exactly as testbeds are built fresh per measurement.
        """
        if self._installed:
            raise FaultError("fault plane is already installed")
        self._installed = True
        self.sim = cluster.sim
        self.sim.fault_plane = self
        self._net_rng = self.sim.random.stream("faults.net")
        self._nodes = list(cluster.nodes)
        for node in self._nodes:
            self._nic_owner[id(node.nic)] = node.index
        for ev in self.schedule.events:
            if isinstance(ev, NodeCrash) and ev.node >= len(self._nodes):
                raise FaultError(
                    "NodeCrash targets node %d but the cluster has %d node(s)"
                    % (ev.node, len(self._nodes))
                )
            self.sim.schedule(ev.at - self.sim.now, self._fire, ev)
            _start, end = ev.window
            if end != FOREVER:
                self.sim.schedule(end - self.sim.now, self._fire_end, ev)
        if vfs is not None:
            self._wrap_mounts(vfs)
        return self

    def _wrap_mounts(self, vfs: Any) -> None:
        by_mount: Dict[str, List[Any]] = {}
        for ev in self.schedule.select(DiskSlowdown, DiskErrorStorm):
            by_mount.setdefault(ev.mount, []).append(ev)
        for mount, events in sorted(by_mount.items()):
            lower, rel = vfs.resolve(mount)
            if rel:
                raise FaultError(
                    "disk fault mount %r is not a mount point (resolved "
                    "inside %r)" % (mount, lower.name)
                )
            slowdowns = [e for e in events if isinstance(e, DiskSlowdown)]
            storms = [e for e in events if isinstance(e, DiskErrorStorm)]
            vfs.mount(mount, ScheduledFaultFS(self.sim, lower, self, mount,
                                              slowdowns, storms))

    def track_rank(self, node_index: int, des_proc: Any, rank: int) -> None:
        """Register a rank's DES process for crash interruption."""
        self._rank_procs.setdefault(node_index, []).append((des_proc, rank))

    def register_crash_listener(
        self, fn: Callable[[int, float, List[int]], None]
    ) -> None:
        """``fn(node_index, at, ranks)`` runs when a node crash fires —
        the hook tracing frameworks use to model in-flight data loss."""
        self._crash_listeners.append(fn)

    # -- static-window queries (the hot-path API) --------------------------

    def node_down(self, node_index: int) -> bool:
        """Is the node inside a crash window right now?"""
        windows = self._down_windows.get(node_index)
        if not windows:
            return False
        return _in_window(windows, self.sim.now) is not None

    def network_gate(self, sender_nic: Any, nbytes: int) -> Generator[Any, Any, None]:
        """Sub-activity run at the head of every network transfer.

        Applies, in order: partition stall (until heal; forever-parks on a
        named completion when the partition never heals, so the queue
        drain turns it into a DeadlockError naming the partition), then
        link degradation (extra latency, then drop/retransmit backoff
        drawing from ``faults.net``).  Outside every window this yields
        nothing and draws nothing.
        """
        node = self._nic_owner.get(id(sender_nic))
        if node is None:
            return
        sim = self.sim
        windows = self._partition_windows.get(node)
        if windows:
            heal = _in_window(windows, sim.now)
            if heal is not None:
                self._count("net.partition_stalls")
                self._inject("partition_stall")
                if heal == FOREVER:
                    # Never settles: the simulated TCP stack retries until
                    # the cluster gives up — i.e. a loud DeadlockError.
                    yield sim.completion("partition:node%d" % node)
                else:
                    yield heal - sim.now
        events = self._link_events.get(node)
        if events:
            now = sim.now
            for ev in events:
                start, end = ev.window
                if not (start <= now < end):
                    continue
                if ev.extra_latency > 0:
                    self._count("net.latency_spikes")
                    self._inject("latency_spike")
                    yield ev.extra_latency
                if ev.drop_rate > 0.0:
                    rng = self._net_rng
                    backoff = ev.retransmit_timeout
                    for _attempt in range(ev.max_retransmits):
                        if rng.random() >= ev.drop_rate:
                            break
                        self._count("net.drops")
                        self._inject("packet_drop")
                        yield backoff
                        backoff *= 2.0

    # -- event firing ------------------------------------------------------

    def _fire(self, ev: Any) -> None:
        if isinstance(ev, NodeCrash):
            node = self._nodes[ev.node]
            node.up = False
            self._count("node.crashes")
            tracked = self._rank_procs.get(ev.node, ())
            ranks = sorted(rank for proc, rank in tracked if proc.alive)
            self._log(
                "node_crash",
                "node %d (%s) crashed; killed rank(s) %s"
                % (ev.node, node.hostname,
                   ", ".join(str(r) for r in ranks) or "none"),
            )
            for proc, rank in tracked:
                if proc.alive:
                    proc.interrupt(
                        NodeCrashed(
                            "node %d (%s) crashed at t=%g while rank %d was "
                            "running" % (ev.node, node.hostname, self.sim.now, rank)
                        )
                    )
            for listener in self._crash_listeners:
                listener(ev.node, self.sim.now, ranks)
        elif isinstance(ev, NetworkPartition):
            self._log(
                "partition",
                "node(s) %s cut off the fabric"
                % ", ".join(str(n) for n in ev.nodes),
            )
            self._count("net.partitions")
        elif isinstance(ev, LinkDegradation):
            self._log(
                "link_degraded",
                "node %d link: +%gs latency, drop_rate=%g"
                % (ev.node, ev.extra_latency, ev.drop_rate),
            )
            self._count("net.degradations")
        elif isinstance(ev, DiskSlowdown):
            self._log(
                "disk_slowdown",
                "%s: +%gs per op for %gs" % (ev.mount, ev.extra_latency, ev.duration),
            )
            self._count("disk.slowdowns")
        elif isinstance(ev, DiskErrorStorm):
            self._log(
                "disk_error_storm",
                "%s: EIO rate %g for %gs" % (ev.mount, ev.error_rate, ev.duration),
            )
            self._count("disk.storms")

    def _fire_end(self, ev: Any) -> None:
        if isinstance(ev, NodeCrash):
            node = self._nodes[ev.node]
            node.up = True
            self._log("node_restart", "node %d (%s) back up" % (ev.node, node.hostname))
        elif isinstance(ev, NetworkPartition):
            self._log(
                "heal", "node(s) %s rejoined the fabric"
                % ", ".join(str(n) for n in ev.nodes),
            )
        elif isinstance(ev, LinkDegradation):
            self._log("link_restored", "node %d link restored" % ev.node)
        elif isinstance(ev, DiskSlowdown):
            self._log("disk_slowdown_end", "%s back to full speed" % ev.mount)
        elif isinstance(ev, DiskErrorStorm):
            self._log("disk_error_storm_end", "%s storm passed" % ev.mount)

    # -- bookkeeping -------------------------------------------------------

    def _log(self, kind: str, detail: str) -> None:
        self.fault_log.append((self.sim.now, kind, detail))
        col = _TELEMETRY.collector
        if col is not None:
            col.fault_event(kind, self.sim.now)

    def _count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def _inject(self, kind: str) -> None:
        col = _TELEMETRY.collector
        if col is not None:
            col.fault_injection(kind)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready deterministic summary: log + counters."""
        return {
            "schedule": self.schedule.describe(),
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "log": [
                {"t": t, "kind": kind, "detail": detail}
                for (t, kind, detail) in self.fault_log
            ],
        }


class ScheduledFaultFS(StackableFS):
    """Disk-layer executor of the plane's slowdown/storm windows.

    The one disk-fault layer, a FiST-style stackable layer over each
    targeted mount.  Draw-order contract: slowdowns are draw-free (pure
    added latency), and each storm draws exactly one coin per eligible
    operation (``ops``-scoped), storms in schedule order, from the
    dedicated ``faults.disk`` stream.  Outside every window the hook
    draws nothing, so adding a disk fault late in a run cannot shift the
    history before its window opens.
    """

    fstype = "chaosfs"

    def __init__(
        self,
        sim: Any,
        lower: Any,
        plane: FaultPlane,
        mount: str,
        slowdowns: List[DiskSlowdown],
        storms: List[DiskErrorStorm],
    ):
        super().__init__(sim, lower, name="chaos(%s)" % lower.name)
        self.plane = plane
        self.mount = mount
        self.slowdowns = list(slowdowns)
        self.storms = list(storms)
        self._rng = sim.random.stream("faults.disk")

    def before_op(self, ctx: Any, op: str, args: tuple) -> Generator[Any, Any, None]:
        """Apply active slowdown windows, then storm coins, then pass through."""
        now = self.sim.now
        for ev in self.slowdowns:
            start, end = ev.window
            if start <= now < end and (not ev.ops or op in ev.ops):
                self.plane._count("disk.delays")
                self.plane._inject("disk_delay")
                yield ev.extra_latency
        for ev in self.storms:
            start, end = ev.window
            if start <= now < end and (not ev.ops or op in ev.ops):
                if self._rng.random() < ev.error_rate:
                    self.plane._count("disk.errors")
                    self.plane._inject("disk_error")
                    raise InjectedIOError(
                        "storm-injected fault in %s on %s" % (op, self.mount)
                    )
        yield 0


def install_fault_plane(schedule: FaultSchedule, cluster: Any,
                        vfs: Any = None) -> FaultPlane:
    """Build a plane for ``schedule`` and install it on ``cluster``."""
    return FaultPlane(schedule).install(cluster, vfs)

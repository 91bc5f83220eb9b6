"""Declarative, deterministic cluster-wide fault schedules.

A :class:`FaultSchedule` is a frozen, pickle-safe plan of *when* the
simulated machine misbehaves: node crashes (with optional restart),
network partitions (with optional heal), per-link packet drop and latency
spikes, and disk slowdown / EIO storms: one composable description
covering every layer the simulator models.

Schedules carry no randomness themselves — event *times and windows* are
explicit, and the stochastic parts (packet-drop coins, EIO coins) are
drawn from the owning simulator's named RNG streams by the
:class:`~repro.faults.plane.FaultPlane` that executes the schedule.  That
split is what keeps fault runs byte-identical across ``jobs=1``,
``jobs=N`` and warm-cache replay: the schedule hashes into the run-cache
key, and the draws come from seed-derived streams no other subsystem
perturbs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.errors import FaultError

__all__ = [
    "NodeCrash",
    "NetworkPartition",
    "LinkDegradation",
    "DiskSlowdown",
    "DiskErrorStorm",
    "FaultSchedule",
    "event_json",
]

#: Window end used for events that never recover (no restart / no heal).
FOREVER = float("inf")


def _check_at(at: float) -> None:
    if at < 0:
        raise FaultError("fault time must be non-negative, got %r" % (at,))


def _check_window(duration: Optional[float]) -> None:
    if duration is not None and duration <= 0:
        raise FaultError("fault duration must be positive, got %r" % (duration,))


@dataclass(frozen=True)
class NodeCrash:
    """Kill one node at ``at``; optionally bring it back ``restart_after``
    seconds later.

    While down, every syscall dispatched on the node raises
    :class:`~repro.errors.NodeCrashed`, and rank processes placed on it
    are interrupted immediately — in-flight work (including a tracer's
    unflushed buffers) is lost, which is exactly the behaviour the
    framework-under-faults tests probe.
    """

    at: float
    node: int
    restart_after: Optional[float] = None

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_window(self.restart_after)
        if self.node < 0:
            raise FaultError("node index must be non-negative")

    @property
    def window(self) -> Tuple[float, float]:
        end = FOREVER if self.restart_after is None else self.at + self.restart_after
        return (self.at, end)


@dataclass(frozen=True)
class NetworkPartition:
    """Cut the listed nodes off the fabric at ``at``; heal ``heal_after``
    seconds later (never, when ``None``).

    Transfers from a partitioned node's NIC stall until the heal time.
    An unhealed partition stalls them forever — which the simulator turns
    into a loud :class:`~repro.errors.DeadlockError` naming the
    partition, never a silent hang.
    """

    at: float
    nodes: Tuple[int, ...]
    heal_after: Optional[float] = None

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_window(self.heal_after)
        object.__setattr__(self, "nodes", tuple(sorted(set(self.nodes))))
        if not self.nodes:
            raise FaultError("partition needs at least one node")

    @property
    def window(self) -> Tuple[float, float]:
        end = FOREVER if self.heal_after is None else self.at + self.heal_after
        return (self.at, end)


@dataclass(frozen=True)
class LinkDegradation:
    """Degrade one node's link for a window: added latency and/or packet
    drop.

    ``drop_rate`` is the per-message probability that the first
    transmission is lost; each loss costs a retransmit timeout that
    doubles per attempt (TCP-style backoff), drawn against the
    ``faults.net`` RNG stream.
    """

    at: float
    duration: float
    node: int
    extra_latency: float = 0.0
    drop_rate: float = 0.0
    retransmit_timeout: float = 2e-3
    max_retransmits: int = 8

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_window(self.duration)
        if self.node < 0:
            raise FaultError("node index must be non-negative")
        if self.extra_latency < 0:
            raise FaultError("extra_latency must be non-negative")
        if not (0.0 <= self.drop_rate <= 1.0):
            raise FaultError("drop_rate must be in [0, 1]")
        if self.retransmit_timeout <= 0:
            raise FaultError("retransmit_timeout must be positive")
        if self.max_retransmits < 1:
            raise FaultError("max_retransmits must be >= 1")

    @property
    def window(self) -> Tuple[float, float]:
        return (self.at, self.at + self.duration)


@dataclass(frozen=True)
class DiskSlowdown:
    """Add deterministic per-operation latency on one mount for a window
    (a degraded-RAID / hung-controller storm).  No RNG draws — slowdowns
    never shift another fault's coin sequence."""

    at: float
    duration: float
    extra_latency: float
    mount: str = "/pfs"
    ops: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_window(self.duration)
        if self.extra_latency <= 0:
            raise FaultError("extra_latency must be positive")
        object.__setattr__(self, "ops", frozenset(self.ops))

    @property
    def window(self) -> Tuple[float, float]:
        return (self.at, self.at + self.duration)


@dataclass(frozen=True)
class DiskErrorStorm:
    """Fail eligible operations on one mount with EIO during a window.

    One coin per eligible op, drawn from the ``faults.disk`` stream —
    the documented draw order is schedule order, after any (draw-free)
    slowdowns.
    """

    at: float
    duration: float
    error_rate: float
    mount: str = "/pfs"
    ops: FrozenSet[str] = frozenset({"read", "write"})

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_window(self.duration)
        if not (0.0 < self.error_rate <= 1.0):
            raise FaultError("error_rate must be in (0, 1]")
        object.__setattr__(self, "ops", frozenset(self.ops))

    @property
    def window(self) -> Tuple[float, float]:
        return (self.at, self.at + self.duration)


#: Every event type a schedule may carry (used for validation).
_EVENT_TYPES = (NodeCrash, NetworkPartition, LinkDegradation, DiskSlowdown, DiskErrorStorm)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, immutable set of fault events for one run.

    Hashable and pickle-safe by construction, so it can ride on a
    :class:`~repro.harness.parallel.RunSpec` (and therefore into the
    run-cache key) unchanged.  ``name`` labels the scenario in reports.
    """

    events: Tuple[object, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for ev in events:
            if not isinstance(ev, _EVENT_TYPES):
                raise FaultError(
                    "unknown fault event %r (expected one of %s)"
                    % (ev, ", ".join(t.__name__ for t in _EVENT_TYPES))
                )
        # Canonical order: by time, then by a stable type/detail key, so two
        # schedules listing the same events compare (and hash) equal.
        object.__setattr__(
            self, "events", tuple(sorted(events, key=lambda e: (e.at, repr(e))))
        )

    @staticmethod
    def of(*events: object, name: str = "") -> "FaultSchedule":
        """Convenience constructor: ``FaultSchedule.of(ev1, ev2, ...)``."""
        return FaultSchedule(events=tuple(events), name=name)

    @property
    def is_empty(self) -> bool:
        return not self.events

    def select(self, *types: type) -> Tuple[object, ...]:
        """The schedule's events of the given type(s), in time order."""
        return tuple(e for e in self.events if isinstance(e, types))

    def validate_horizon(self, horizon: Optional[float]) -> None:
        """Check every event fires inside a simulated-time horizon.

        A fault scheduled past the run's horizon would silently never
        fire — almost always a mis-specified scenario; fail it loudly.
        """
        if horizon is None:
            return
        late = [e for e in self.events if e.at >= horizon]
        if late:
            raise FaultError(
                "fault event(s) scheduled at/after the %gs horizon would "
                "never fire: %s" % (horizon, "; ".join(repr(e) for e in late))
            )

    def node_down_windows(self) -> dict:
        """node index -> list of (start, end) down windows, time-ordered."""
        windows: dict = {}
        for ev in self.select(NodeCrash):
            windows.setdefault(ev.node, []).append(ev.window)
        return windows

    def describe(self) -> str:
        """One-line human summary ("2 events: NodeCrash@0.1, ...")."""
        if self.is_empty:
            return "no faults"
        parts = ["%s@%g" % (type(e).__name__, e.at) for e in self.events]
        return "%d event(s): %s" % (len(self.events), ", ".join(parts))

    def to_json(self) -> Dict[str, Any]:
        """The schedule as plain JSON, suitable for archive metadata.

        Diagnosis tools read this back from a run's manifest to surface
        the injected faults as root-cause candidates, so the shape is
        stable: ``{"name", "events": [{"type", "window", <fields>}]}``
        with an unbounded window end rendered as ``None`` (JSON has no
        infinity).
        """
        return {
            "name": self.name,
            "events": [event_json(ev) for ev in self.events],
        }


def event_json(ev: object) -> Dict[str, Any]:
    """One fault event as plain JSON: type name, window, and fields."""
    if not isinstance(ev, _EVENT_TYPES):
        raise FaultError("not a fault event: %r" % (ev,))
    out: Dict[str, Any] = {"type": type(ev).__name__}
    start, end = ev.window  # type: ignore[attr-defined]
    out["window"] = [start, None if end == FOREVER else end]
    for f in dataclass_fields(ev):
        value = getattr(ev, f.name)
        if isinstance(value, frozenset):
            value = sorted(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out

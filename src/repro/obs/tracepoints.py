"""Static tracepoints: the catalog of instrumented sites and their sink.

Modelled on kernel tracepoints: each hot layer contains fixed call sites
that check one global — ``STATE.collector`` — and do nothing when it is
``None``.  Disabled cost is therefore a single attribute load and an
``is not None`` branch per site (and the DES run loop pays *zero*: the
simulator selects an entirely separate instrumented loop at ``run()``
entry).  Enabling telemetry installs a :class:`TelemetryCollector`, and
every site funnels into its domain methods, which are the authoritative
list of what is instrumented:

=====================  ====================================================
site                   telemetry
=====================  ====================================================
``des.simulator``      event count, queue-depth timeline + counter series,
                       ring buffer of the last dispatched events
``simos.process``      per-call counters, I/O request-size histogram,
                       per-call spans (one Perfetto track per node/rank),
                       CPU-busy timeline per node
``cluster.network``    transfer count/bytes, NIC + fabric occupancy
                       timelines, transfer latency histogram
``simfs.blockdev``     per-disk op/byte/seek counters, busy timeline,
                       request-size histogram
``simfs.pfs``          per-server op/byte/seek counters + queue occupancy,
                       metadata RPC counter, extent-lock wait histogram
``simfs.cache``        hit/miss/eviction/writeback counters per cache
``simmpi.comm``        per-collective counters, collective wait-time
                       histogram + spans, message count/bytes
=====================  ====================================================

The collector never reads host wall-clock time; with a fixed seed its
exported payload is byte-identical across ``jobs=1``/``jobs=N``/warm
cache — the determinism contract the harness tests pin down.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry, canonical_json
from repro.obs.perfetto import to_chrome_trace
from repro.obs.spans import KERNEL_PID, SpanRecorder

__all__ = [
    "TelemetryConfig",
    "TelemetryCollector",
    "STATE",
    "current",
    "enabled",
    "session",
    "describe_event",
    "record_call",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs for one telemetry session.

    Attributes
    ----------
    ring_size:
        Dispatched events kept in the ring buffer for deadlock reports.
    queue_sample_every:
        DES queue depth is sampled every this-many dispatched events.
    spans:
        Record spans/counter series (metrics are always recorded).
    """

    ring_size: int = 256
    queue_sample_every: int = 64
    spans: bool = True


class TelemetryCollector:
    """One session's sink: a metrics registry + span recorder + ring buffer."""

    __slots__ = ("config", "metrics", "spans", "ring", "_cpu_level")

    def __init__(self, config: Optional[TelemetryConfig] = None):
        self.config = config or TelemetryConfig()
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(enabled=self.config.spans)
        self.ring: deque = deque(maxlen=self.config.ring_size)
        self.spans.name_track(KERNEL_PID, "sim-kernel")
        self._cpu_level: Dict[int, int] = {}

    # -- des.simulator -------------------------------------------------------

    def des_events(self, executed: int) -> None:
        """One run-loop drain finished ``executed`` event dispatches."""
        self.metrics.inc("des.events_dispatched", executed)
        self.metrics.inc("des.run_calls")

    def des_queue_depth(self, t: float, depth: int) -> None:
        """Periodic sample of the pending-event queue depth."""
        self.metrics.sample("des.queue_depth", t, depth)
        self.spans.counter(KERNEL_PID, "des.queue_depth", t, depth)

    # -- simos.process -------------------------------------------------------

    def os_call(
        self,
        node_index: int,
        hostname: str,
        tid: int,
        tname: str,
        layer: str,
        name: str,
        t0: float,
        dur: float,
        nbytes: Optional[int],
    ) -> None:
        """One dispatched syscall/libcall (after its body completed)."""
        record_call(self.metrics, self.spans, node_index, hostname, tid, tname,
                    layer, name, t0, dur, nbytes)

    def cpu_busy(self, node_index: int, t: float, delta: int) -> None:
        """A CPU charge began (+1) or ended (-1) on a node."""
        level = self._cpu_level.get(node_index, 0) + delta
        self._cpu_level[node_index] = level
        self.metrics.sample("cpu.node%d.busy" % node_index, t, level)

    # -- cluster.network -----------------------------------------------------

    def net_transfer(self, nbytes: int, t0: float, dur: float) -> None:
        """One message fully moved sender-NIC -> fabric -> delivered."""
        m = self.metrics
        m.inc("net.transfers")
        m.inc("net.bytes", nbytes)
        m.observe("net.transfer_seconds", dur)

    def net_nic(self, name: str, t: float, in_use: int) -> None:
        """Occupancy change on one endpoint link (NIC)."""
        self.metrics.sample("net.%s.in_use" % name, t, in_use)

    def net_fabric(self, t: float, in_use: int) -> None:
        """Occupancy change on the shared switch fabric."""
        self.metrics.sample("net.fabric.in_use", t, in_use)
        self.spans.counter(KERNEL_PID, "net.fabric.in_use", t, in_use)

    # -- repro.faults --------------------------------------------------------

    def fault_event(self, kind: str, t: float) -> None:
        """A scheduled fault fired or recovered (node_crash, heal, ...)."""
        self.metrics.inc("faults.events")
        self.metrics.inc("faults.%s" % kind)

    def fault_injection(self, kind: str) -> None:
        """One stochastic injection hit (packet_drop, disk_error, ...)."""
        self.metrics.inc("faults.injected.%s" % kind)

    # -- repro.store ---------------------------------------------------------

    def store_ingest(self, segments: int, new: int, deduped: int,
                     events: int) -> None:
        """One bundle archived into a TraceBank (ingest accounting)."""
        m = self.metrics
        m.inc("store.ingest.runs")
        m.inc("store.ingest.segments", segments)
        m.inc("store.ingest.new_segments", new)
        m.inc("store.ingest.deduped_segments", deduped)
        m.inc("store.ingest.events", events)

    def store_scan(self, scanned: int, pruned: int, matched: int) -> None:
        """One archive query/DFG scan finished (pushdown accounting)."""
        m = self.metrics
        m.inc("store.scan.queries")
        m.inc("store.scan.segments_scanned", scanned)
        m.inc("store.scan.segments_pruned", pruned)
        m.inc("store.scan.events_matched", matched)

    def service_request(self, route: str, status: int, seconds: float) -> None:
        """One TraceBank-service HTTP request finished (any route/status)."""
        m = self.metrics
        m.inc("service.requests")
        m.inc("service.route.%s.requests" % route)
        m.inc("service.status.%dxx" % (status // 100))
        m.observe("service.request_seconds", seconds)

    # -- simfs ---------------------------------------------------------------

    def disk_op(self, name: str, t: float, nbytes: int, sequential: bool,
                in_use: int) -> None:
        """One extent serviced by a block device."""
        m = self.metrics
        m.inc("disk.%s.ops" % name)
        m.inc("disk.%s.bytes" % name, nbytes)
        if not sequential:
            m.inc("disk.%s.seeks" % name)
        m.observe("disk.request_bytes", nbytes)
        m.sample("disk.%s.busy" % name, t, in_use)

    def pfs_chunk(self, server: str, t: float, nbytes: int, sequential: bool,
                  in_use: int) -> None:
        """One striped chunk serviced by a PFS storage server."""
        m = self.metrics
        m.inc("pfs.%s.ops" % server)
        m.inc("pfs.%s.bytes" % server, nbytes)
        if not sequential:
            m.inc("pfs.%s.seeks" % server)
        m.sample("pfs.%s.in_use" % server, t, in_use)

    def pfs_meta_rpc(self) -> None:
        """One metadata-server RPC."""
        self.metrics.inc("pfs.meta_rpcs")

    def pfs_lock_wait(self, seconds: float) -> None:
        """Time one writer spent acquiring a shared-file extent lock."""
        self.metrics.inc("pfs.extent_locks")
        self.metrics.observe("pfs.extent_lock_wait_seconds", seconds)

    def cache_access(self, name: str, hits: int, misses: int) -> None:
        """One read/write passed through a caching layer."""
        m = self.metrics
        if hits:
            m.inc("fscache.%s.hits" % name, hits)
        if misses:
            m.inc("fscache.%s.misses" % name, misses)

    def cache_writeback(self, name: str, blocks: int) -> None:
        """Dirty blocks flushed from a caching layer to the lower FS."""
        self.metrics.inc("fscache.%s.writebacks" % name, blocks)

    # -- simmpi --------------------------------------------------------------

    def mpi_collective(self, name: str, node_index: int, rank: int,
                       t0: float, wait: float) -> None:
        """One rank completed one collective; ``wait`` = entry to release."""
        m = self.metrics
        m.inc("mpi.collective.%s" % name)
        m.observe("mpi.collective_wait_seconds", wait)
        if self.spans.enabled:
            self.spans.complete(
                node_index, rank, "%s:wait" % name, "collective", t0, wait, None
            )

    def mpi_message(self, nbytes: int) -> None:
        """One point-to-point message handed to the network."""
        self.metrics.inc("mpi.messages")
        self.metrics.inc("mpi.message_bytes", nbytes)

    # -- export --------------------------------------------------------------

    def format_ring(self) -> List[str]:
        """Human-readable rendering of the dispatched-event ring buffer."""
        return [describe_event(t, cb, args) for (t, cb, args) in self.ring]

    def export(self, end_time: float) -> Dict[str, Any]:
        """The session's full payload: metrics snapshot + Chrome trace.

        Normalized through a JSON round trip so the payload compares equal
        before and after a run-cache round trip (byte-identity contract).
        """
        payload = {
            "schema": "repro/telemetry/v1",
            "metrics": self.metrics.snapshot(end_time=end_time),
            "trace": to_chrome_trace(self.spans),
        }
        return json.loads(canonical_json(payload))


def describe_event(t: float, callback: Any, args: tuple) -> str:
    """One ring-buffer entry as text: time, target process, callback."""
    owner = getattr(callback, "__self__", None)
    fname = getattr(callback, "__name__", None) or repr(callback)
    owner_name = getattr(owner, "name", None)
    if owner_name is not None:
        target = "%s<%s>" % (fname.lstrip("_"), owner_name)
    else:
        target = getattr(callback, "__qualname__", fname)
    try:
        rendered_args = ", ".join(repr(a) for a in args)
    except Exception:  # pragma: no cover - defensive: repr must not break reports
        rendered_args = "?"
    return "t=%.9f %s(%s)" % (t, target, rendered_args)


class _TracepointState:
    """Holder for the active collector (attribute load is the fast path)."""

    __slots__ = ("collector",)

    def __init__(self) -> None:
        self.collector: Optional[TelemetryCollector] = None


#: The one global every tracepoint site checks.
STATE = _TracepointState()


def record_call(
    metrics: MetricsRegistry,
    spans: SpanRecorder,
    node_index: int,
    hostname: str,
    tid: int,
    tname: str,
    layer: str,
    name: str,
    t0: float,
    dur: float,
    nbytes: Optional[int],
) -> None:
    """Record one syscall/libcall: the per-layer and per-call counters,
    the call-seconds and request-bytes histograms, and a span on the
    call's ``(node, rank-or-pid)`` track.

    The one definition of what a call records, shared by the live
    ``simos.process`` tracepoint (:meth:`TelemetryCollector.os_call`)
    and the store's replay of archived events
    (:func:`repro.store.query.events_telemetry`).
    """
    spans.name_track(node_index, "node%d %s" % (node_index, hostname), tid, tname)
    metrics.inc("os.calls.%s" % layer)
    metrics.inc("os.%s.%s" % (layer, name))
    metrics.observe("os.call_seconds", dur)
    if nbytes is not None:
        metrics.observe("os.io_request_bytes", nbytes)
    if spans.enabled:
        args = {"nbytes": nbytes} if nbytes is not None else None
        spans.complete(node_index, tid, name, layer, t0, dur, args)


def current() -> Optional[TelemetryCollector]:
    """The active collector, or None when telemetry is off."""
    return STATE.collector


def enabled() -> bool:
    """True while a telemetry session is active."""
    return STATE.collector is not None


@contextmanager
def session(
    config: Optional[TelemetryConfig] = None,
) -> Iterator[TelemetryCollector]:
    """Activate a fresh collector for the dynamic extent of the block.

    Sessions may nest; the inner session shadows the outer one (sites see
    only the innermost collector), and the outer is restored on exit.
    """
    prev = STATE.collector
    col = TelemetryCollector(config)
    STATE.collector = col
    try:
        yield col
    finally:
        STATE.collector = prev

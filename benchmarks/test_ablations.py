"""Ablation benches for design choices DESIGN.md calls out.

Not paper figures — these isolate the knobs the reproduction's cost model
turns, so a reader can see *why* the figures come out as they do:

* LANL-Trace per-event cost ablation — overhead scales linearly in the
  per-event price at fixed block size;
* ptrace residual cpu_factor ablation — sets the large-block floor;
* Tracefs output-buffering ablation — bigger blocks amortize framing;
* codec micro-benchmarks — binary vs text encode/decode throughput.
"""

import pytest

from repro.frameworks.lanltrace.framework import LANLTrace, LANLTraceConfig
from repro.harness.experiment import measure_overhead
from repro.harness.figures import paper_testbed
from repro.trace import binary_format, text_format
from repro.trace.events import EventLayer, TraceEvent
from repro.trace.records import TraceFile
from repro.units import KiB, MiB
from repro.workloads.mpi_io_test import mpi_io_test
from repro.workloads.patterns import AccessPattern

NP = 8
ARGS = {
    "pattern": AccessPattern.N_TO_N,
    "block_size": 64 * KiB,
    "nobj": 64,
    "path": "/pfs/out",
}


def test_per_event_cost_ablation(once):
    """Halving/doubling the per-event stop cost moves overhead almost
    proportionally at small blocks — the paper's 'constant number of
    traced events per block' mechanism."""

    def sweep():
        out = {}
        for cost in (1e-3, 2e-3, 4e-3):
            cfg = LANLTraceConfig(
                syscall_event_cost=cost, libcall_event_cost=cost / 2, cpu_factor=1.0
            )
            m = measure_overhead(
                lambda c=cfg: LANLTrace(c), mpi_io_test, ARGS,
                config=paper_testbed(nprocs=NP), nprocs=NP,
            )
            out[cost] = m.elapsed_overhead
        return out

    rows = once(sweep)
    print()
    for cost, ovh in rows.items():
        print("per-event cost %.1fms -> elapsed overhead %5.1f%%" % (cost * 1e3, 100 * ovh))
    values = list(rows.values())
    assert values == sorted(values)
    # roughly proportional: 4x the cost gives >2.5x the overhead
    assert values[-1] > 2.5 * values[0]


def test_cpu_factor_sets_large_block_floor(once):
    """At 8 MiB blocks, per-event costs have amortized away; what remains
    is the residual ptrace slowdown factor."""
    big = dict(ARGS, block_size=8 * MiB, nobj=4)

    def sweep():
        out = {}
        for factor in (1.0, 1.08, 1.25):
            cfg = LANLTraceConfig(cpu_factor=factor)
            m = measure_overhead(
                lambda c=cfg: LANLTrace(c), mpi_io_test, big,
                config=paper_testbed(nprocs=NP), nprocs=NP,
            )
            out[factor] = m.elapsed_overhead
        return out

    rows = once(sweep)
    print()
    for factor, ovh in rows.items():
        print("cpu_factor %.2f -> elapsed overhead %5.1f%%" % (factor, 100 * ovh))
    values = list(rows.values())
    assert values == sorted(values)


def _sample_trace(n=2000):
    return TraceFile(
        [
            TraceEvent(
                timestamp=1159808385.0 + i * 1e-3,
                duration=3.4e-5,
                layer=EventLayer.SYSCALL,
                name="SYS_write",
                args=(3, "0x8000003", 65536),
                result=65536,
                pid=10378,
                rank=i % 32,
                hostname="host13.lanl.gov",
                user="jdoe",
                path="/pfs/mpi_io_test.out",
                fd=3,
                nbytes=65536,
                offset=i * 65536,
            )
            for i in range(n)
        ],
        hostname="host13.lanl.gov",
        pid=10378,
        rank=0,
        framework="bench",
    )


def test_binary_encode_throughput(benchmark):
    tf = _sample_trace()
    blob = benchmark(binary_format.encode_trace_file, tf)
    assert binary_format.decode_trace_file(blob).events == tf.events


def test_binary_decode_throughput(benchmark):
    tf = _sample_trace()
    blob = binary_format.encode_trace_file(tf)
    out = benchmark(binary_format.decode_trace_file, blob)
    assert len(out) == len(tf)


def test_text_encode_throughput(benchmark):
    tf = _sample_trace()
    text = benchmark(text_format.encode_trace_file, tf)
    assert "SYS_write" in text


def test_text_decode_throughput(benchmark):
    tf = _sample_trace()
    text = text_format.encode_trace_file(tf)
    out = benchmark(text_format.decode_trace_file, text)
    assert len(out) == len(tf)


def test_buffering_ablation():
    """Bigger output blocks make the binary trace smaller (less framing)
    and are the 'buffering (to improve performance)' of §2.2."""
    tf = _sample_trace(4000)
    sizes = {
        n: len(binary_format.encode_trace_file(tf, block_records=n, compressed=True))
        for n in (1, 16, 256)
    }
    print("\nblock_records -> bytes: %r" % sizes)
    assert sizes[256] < sizes[16] < sizes[1]


def test_des_kernel_event_rate(benchmark):
    """Raw simulator throughput: events dispatched per second."""
    from repro.des.events import Timeout
    from repro.des.simulator import Simulator

    def run():
        sim = Simulator()

        def worker():
            for _ in range(2000):
                yield Timeout(0.001)

        for i in range(10):
            sim.spawn(worker(), name="w%d" % i)
        sim.run()
        return sim.events_executed

    events = benchmark(run)
    assert events >= 20000

"""Kernel hot-path microbenchmarks.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_kernel.py -q -s

Each benchmark times one hot path of the simulator — event churn through the
heap, timer cancel/compaction churn, network send/deliver throughput, trace
recording and query cost, and one end-to-end Figure-2 sweep cell — and the
session writes the measurements to ``benchmarks/BENCH_kernel.json``.  That
file is checked in as the perf baseline of the PR that introduced it; re-run
the suite and diff to see where a change moved the needle (absolute numbers
are machine-specific — compare ratios, not values, across machines).

``REPRO_BENCH_SMOKE=1`` shrinks every workload ~50× so CI can verify the
benchmarks still run (and archive the artifact) without slowing the matrix.

These are *benchmarks*, not correctness tests: they only assert that the
measured path did the work it claims to time.  They are deliberately outside
the tier-1 ``tests/`` tree (pytest ``testpaths``) so normal test runs skip
them.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro.engine import PAPER_LAN, AbcastRunSpec
from repro.engine.runner import execute_run
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.trace import Tracer

BENCH_SCHEMA = "repro.bench-kernel.v1"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Workload sizes: full baseline vs CI smoke (~50x smaller).
SCALE = 50 if not SMOKE else 1
N_EVENTS = 4_000 * SCALE
N_TIMERS = 2_000 * SCALE
N_SENDS = 1_000 * SCALE
N_RECORDS = 2_000 * SCALE
CELL_RATE = 300.0
CELL_DURATION = 1.0 if not SMOKE else 0.1

#: Where the session writes its measurements.  ``REPRO_BENCH_OUT`` points it
#: elsewhere — CI's smoke run uses this so the checked-in file stays as it
#: is; both are archived side by side.
OUT_PATH = Path(
    os.environ.get("REPRO_BENCH_OUT")
    or Path(__file__).resolve().parent / "BENCH_kernel.json"
)

#: bench name -> {"ops": ..., "seconds": ..., "ops_per_sec": ...}
RESULTS: dict[str, dict] = {}


def _record(name: str, ops: int, seconds: float) -> None:
    RESULTS[name] = {
        "ops": ops,
        "seconds": round(seconds, 6),
        "ops_per_sec": round(ops / seconds) if seconds > 0 else None,
    }


def _best_of(repeats: int, fn) -> float:
    """Best (minimum) wall time of ``repeats`` runs — the standard noise
    filter for microbenchmarks (the minimum is the least-interfered run)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="session", autouse=True)
def _write_results():
    yield
    if not RESULTS:  # e.g. a single deselected test — nothing to write
        return
    document = {
        "schema": BENCH_SCHEMA,
        "mode": "smoke" if SMOKE else "full",
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "benches": {name: RESULTS[name] for name in sorted(RESULTS)},
    }
    OUT_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\n[bench] wrote {OUT_PATH}")


def test_bench_event_churn():
    """Raw heap throughput: fire-and-forget schedule + drain, no payloads."""
    def run_once():
        sim = Simulator(seed=0)
        schedule = sim.schedule_call_at
        counter = [0]

        def tick(box=counter):
            box[0] += 1

        for i in range(N_EVENTS):
            schedule(i * 1e-6, tick, ())
        sim.run()
        assert counter[0] == N_EVENTS

    seconds = _best_of(3, run_once)
    _record("event_churn", N_EVENTS, seconds)


def test_bench_timer_cancel_churn():
    """Cancellation-heavy load: schedule timers, cancel 75%, drain the rest.

    Exercises the lazy-deletion table and heap compaction — the seed kernel
    paid O(n) per cancel here.
    """
    def run_once():
        sim = Simulator(seed=0)
        fired = [0]

        def tick(box=fired):
            box[0] += 1

        events = [sim.schedule(1.0 + i * 1e-6, tick) for i in range(N_TIMERS)]
        for index, event in enumerate(events):
            if index % 4:  # cancel 3 of every 4
                event.cancel()
        sim.run()
        assert fired[0] == (N_TIMERS + 3) // 4

    seconds = _best_of(3, run_once)
    _record("timer_cancel_churn", N_TIMERS, seconds)


def test_bench_send_deliver_throughput():
    """Network fabric cost: send N messages through delay model + stats.

    Covers the single send (a cohort of one through ``Network.send_batch``),
    the memoized byte accounting and the delivery push — everything between
    ``env.send`` and ``node.deliver``.
    """
    class Sink:
        def __init__(self):
            self.received = 0

        def deliver(self, envelope):
            self.received += 1

    def run_once():
        sim = Simulator(seed=0)
        network = Network(sim)
        sinks = {pid: Sink() for pid in range(4)}
        for pid, sink in sinks.items():
            network.register(pid, sink)
        payload = ("bench-payload", 12345)
        send = network.send
        for i in range(N_SENDS):
            send(i % 4, (i + 1) % 4, payload)
        sim.run()
        assert sum(sink.received for sink in sinks.values()) == N_SENDS

    seconds = _best_of(3, run_once)
    _record("send_deliver_throughput", N_SENDS, seconds)


def test_bench_trace_record_and_query():
    """Tracer cost: emit N records, then the common queries.

    The incremental per-kind index makes ``of_kind``/``counts`` O(result);
    this bench would regress sharply if they went back to O(all records).
    """
    def run_once():
        tracer = Tracer()
        emit = tracer.emit
        for i in range(N_RECORDS):
            emit(i * 1e-6, i % 4, "send" if i % 3 else "deliver", i)
        for _ in range(20):
            sends = tracer.of_kind("send")
            counts = tracer.counts()
        assert counts["send"] == len(sends)

    seconds = _best_of(3, run_once)
    _record("trace_record_query", N_RECORDS, seconds)


def test_bench_batch_drain():
    """Cohort drain throughput: deep queue, many events per timestamp.

    The batched run loop gathers same-timestamp cohorts in bulk once the
    queue is deeper than its threshold; this workload (N events spread over
    N/128 timestamps, all scheduled up front) keeps it on that path for the
    whole drain.  Contrast with ``event_churn``, whose distinct timestamps
    measure the same loop's per-event fallback.
    """
    cohort = 128

    def run_once():
        sim = Simulator(seed=0)
        schedule = sim.schedule_call_at
        counter = [0]

        def tick(box=counter):
            box[0] += 1

        for i in range(N_EVENTS):
            schedule((i // cohort) * 1e-5, tick, ())
        sim.run()
        assert counter[0] == N_EVENTS
        assert sim.drain_batches > 0

    seconds = _best_of(3, run_once)
    _record("batch_drain", N_EVENTS, seconds)


def test_bench_figure2_cell():
    """End-to-end: one Figure-2 sweep cell (cabcast-p on the paper LAN).

    Best-of-5 like the microbenches: a single end-to-end run is ~100ms and
    one descheduling blip would dominate it.
    """
    spec = AbcastRunSpec(
        protocol="cabcast-p",
        rate=CELL_RATE,
        duration=CELL_DURATION,
        n=4,
        seed=0,
        warmup=min(0.5, CELL_DURATION * 0.2),
        cluster=PAPER_LAN,
    )
    reports = []

    def run_once():
        reports.append(execute_run(spec))

    seconds = _best_of(5, run_once)
    report = reports[-1]
    assert report.delivered > 0
    events = report.trace_counts.get("a-deliver", 0) + report.network["sent"]
    _record("figure2_cell", events, seconds)
    RESULTS["figure2_cell"]["sim_time"] = report.sim_time


def test_bench_parallel_shards():
    """Kernel-per-shard parallel execution: an 8-shard RSM run on one serial
    kernel vs the same spec mapped over worker processes.

    ``ops`` counts the kernel events the run processes, so ``ops_per_sec``
    measures end-to-end event throughput of the parallel path — fork,
    pickling every shard's outcome back and the merge stage included.  The
    run is sized to stand above that fixed cost (141 732 events, over a
    second on one kernel of the recording box); serial and parallel runs
    alternate and the medians are recorded, with the cpu count and python
    beside them — compare ``speedup_vs_serial`` across machines, not the
    absolute values.  A single-CPU box can only show the overhead.
    """
    import statistics

    from repro.engine import RsmRunSpec, TopologySpec
    from repro.rsm.runner import run_rsm

    # Smoke mode shrinks the run ~3× rather than ~50×: below a few tens of
    # thousands of events the fork and merge costs dominate ops/s and the
    # smoke gate would compare overhead, not throughput.
    base = dict(
        protocol="multipaxos",
        rate=2000.0,
        duration=3.0 if not SMOKE else 1.0,
        clients=16,
        seed=0,
        topology=TopologySpec(groups=8, group_size=3),
    )
    cpus = os.cpu_count() or 1
    workers = min(2, cpus)
    repeats = 7 if not SMOKE else 3
    serial_spec = RsmRunSpec(**base)
    parallel_spec = RsmRunSpec(**base, parallel=True, workers=workers)

    def timed(spec):
        start = time.perf_counter()
        result = run_rsm(spec)
        return time.perf_counter() - start, result

    serial_times, parallel_times = [], []
    for _ in range(repeats):
        serial_times.append(timed(serial_spec)[0])
        seconds, parallel_result = timed(parallel_spec)
        parallel_times.append(seconds)
    serial_seconds = statistics.median(serial_times)
    parallel_seconds = statistics.median(parallel_times)
    assert parallel_result.committed > 0
    _record("parallel_shards", parallel_result.sim.events_processed, parallel_seconds)
    RESULTS["parallel_shards"].update(
        workers=workers,
        cpus=cpus,
        python=".".join(str(part) for part in sys.version_info[:3]),
        method=f"median of {repeats} alternating serial/parallel runs",
        serial_seconds=round(serial_seconds, 6),
        speedup_vs_serial=round(serial_seconds / parallel_seconds, 4),
    )

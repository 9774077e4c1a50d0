"""Throughput/latency sweeps — the code behind Figures 2 and 3.

The paper measures "the latency of atomic broadcast as a function of the
throughput, whereby latency is defined as the shortest delay between
a-broadcasting a message m and a-delivering m", on stable runs, with the
throughput varied between 20 and 500 msg/s.  :func:`latency_vs_throughput`
reproduces that protocol-agnostically: one simulated run per throughput
point, Poisson open-loop workload, warmup excluded, mean over the
steady-state window.

Execution is delegated to :mod:`repro.engine` whenever the protocol factory
is registry-known (pass ``jobs``/``cache`` to parallelise runs across
processes and reuse results by spec hash); unregistered ad-hoc factories
fall back to an in-process serial loop with identical semantics.  The
defaults are the ``LAN*`` testbed presets of :mod:`repro.engine.spec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.engine.spec import (
    DEFAULT_SERVICE_TIME,
    LAN,
    LAN_CAPACITY,
    LAN_DATAGRAM,
    PAPER_THROUGHPUTS,
    AbcastRunSpec,
    ClusterSpec,
)
from repro.workload.metrics import LatencySummary, summarize

__all__ = ["SweepPoint", "latency_vs_throughput", "PAPER_THROUGHPUTS"]


@dataclass(frozen=True)
class SweepPoint:
    """One (throughput, latency) point of a Figure-2/3 curve."""

    throughput: float
    offered: int  # messages injected in the measured window
    delivered: int  # of those, messages that were a-delivered everywhere asked
    summary: LatencySummary  # latency stats over delivered window messages

    @property
    def mean_latency_ms(self) -> float:
        return self.summary.mean * 1e3

    @property
    def loss_fraction(self) -> float:
        if self.offered == 0:
            return 0.0
        return 1.0 - self.delivered / self.offered


def _run_seed(seed: int, index: int, repeat: int) -> int:
    """Historical per-run seed derivation — kept bit-for-bit stable."""
    return seed + index + 1000 * repeat


def latency_vs_throughput(
    make_module: Callable[..., Any] | str,
    n: int,
    throughputs: Sequence[float] = PAPER_THROUGHPUTS,
    duration: float = 4.0,
    warmup: float = 0.5,
    drain: float = 1.5,
    seed: int = 0,
    delay=LAN,
    datagram_delay=LAN_DATAGRAM,
    service_time: float = DEFAULT_SERVICE_TIME,
    capacity=LAN_CAPACITY,
    max_events: int | None = 4_000_000,
    repeats: int = 1,
    jobs: int = 1,
    cache=None,
) -> list[SweepPoint]:
    """Sweep aggregate throughput and measure mean a-deliver latency.

    ``make_module`` has the :func:`repro.harness.abcast_runner.run_abcast`
    factory signature, or is a protocol registry name.  Runs are *not*
    required to deliver everything — WABCast legitimately stalls under
    heavy collisions (the ``∞`` of Table 1) — so each point also reports
    the delivered fraction.

    ``repeats`` > 1 runs each throughput point on that many independent
    seeds and pools the latency samples — tighter estimates for
    proportional runtime.  ``jobs`` > 1 fans the runs out over worker
    processes; ``cache`` (directory path) reuses results by spec hash.
    Both require a registry-known protocol (results are identical either
    way — the engine executes the very same runs).
    """
    if isinstance(make_module, str):
        name: str | None = make_module
    else:
        from repro.harness.registry import name_of

        name = name_of(make_module)

    if name is None:
        return _serial_sweep(
            make_module, n, throughputs, duration, warmup, drain, seed,
            delay, datagram_delay, service_time, capacity, max_events, repeats,
        )

    from repro.engine.runner import run_sweep

    cluster = ClusterSpec(
        delay=delay,
        datagram_delay=datagram_delay,
        capacity=capacity,
        service_time=service_time,
    )
    specs = [
        AbcastRunSpec(
            protocol=name,
            rate=rate,
            duration=duration,
            n=n,
            seed=_run_seed(seed, index, repeat),
            warmup=warmup,
            drain=drain,
            cluster=cluster,
            require_all_delivered=False,
            max_events=max_events,
        )
        for index, rate in enumerate(throughputs)
        for repeat in range(repeats)
    ]
    sweep = run_sweep(specs, jobs=jobs, cache=cache)

    points: list[SweepPoint] = []
    reports = iter(sweep.reports)
    for rate in throughputs:
        offered = 0
        latencies: list[float] = []
        for _ in range(repeats):
            report = next(reports)
            offered += report.offered
            latencies.extend(report.latencies)
        points.append(
            SweepPoint(
                throughput=rate,
                offered=offered,
                delivered=len(latencies),
                summary=summarize(latencies),
            )
        )
    return points


def _serial_sweep(
    make_module, n, throughputs, duration, warmup, drain, seed,
    delay, datagram_delay, service_time, capacity, max_events, repeats,
) -> list[SweepPoint]:
    """In-process fallback for factories outside the protocol registry."""
    from repro.engine.runner import window_latencies
    from repro.harness.abcast_runner import run_abcast
    from repro.workload.generator import poisson_schedule

    points: list[SweepPoint] = []
    for index, rate in enumerate(throughputs):
        latencies: list[float] = []
        offered = 0
        for repeat in range(repeats):
            run_seed = _run_seed(seed, index, repeat)
            schedules = poisson_schedule(n, rate, duration, seed=run_seed)
            result = run_abcast(
                make_module,
                n,
                schedules,
                seed=run_seed,
                delay=delay,
                datagram_delay=datagram_delay,
                service_time=service_time,
                capacity=capacity,
                horizon=duration + drain,
                check=True,
                require_all_delivered=False,
                max_events=max_events,
            )
            run_offered, run_latencies = window_latencies(result, warmup, duration)
            offered += run_offered
            latencies.extend(run_latencies)
        points.append(
            SweepPoint(
                throughput=rate,
                offered=offered,
                delivered=len(latencies),
                summary=summarize(latencies),
            )
        )
    return points

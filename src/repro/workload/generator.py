"""Workload generation for the throughput/latency experiments (section 8.1).

The paper drives its cluster with a symmetric open-loop workload: messages
are a-broadcast at an aggregate rate varied between 20 and 500 msg/s,
spread over all processes.  :func:`poisson_schedule` reproduces that as a
Poisson arrival process split evenly across the senders — open-loop, so
queueing delay at high throughput feeds back into latency but not into the
arrival pattern, exactly like the paper's fixed-rate generators.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.sim.kernel import derive_seed

__all__ = ["poisson_schedule", "uniform_schedule"]

Schedule = Mapping[int, Sequence[tuple[float, Any]]]


def _default_payload(pid: int, index: int) -> str:
    return f"m{pid}.{index}"


def poisson_schedule(
    n: int,
    rate: float,
    duration: float,
    seed: int = 0,
    start: float = 0.0,
    senders: Sequence[int] | None = None,
    payload: Callable[[int, int], Any] = _default_payload,
) -> dict[int, list[tuple[float, Any]]]:
    """Poisson arrivals at aggregate ``rate`` msg/s over ``senders``.

    Each sender gets an independent Poisson process of rate
    ``rate / len(senders)``; the superposition is Poisson at ``rate``.
    """
    if rate <= 0 or duration <= 0:
        raise ConfigurationError("rate and duration must be positive")
    chosen = list(senders) if senders is not None else list(range(n))
    per_sender = rate / len(chosen)
    schedules: dict[int, list[tuple[float, Any]]] = {}
    for pid in chosen:
        rng = random.Random(derive_seed(seed, "workload", pid))
        t = start
        sends: list[tuple[float, Any]] = []
        index = 0
        while True:
            t += rng.expovariate(per_sender)
            if t >= start + duration:
                break
            index += 1
            sends.append((t, payload(pid, index)))
        schedules[pid] = sends
    return schedules


def uniform_schedule(
    n: int,
    rate: float,
    duration: float,
    start: float = 0.0,
    senders: Sequence[int] | None = None,
    payload: Callable[[int, int], Any] = _default_payload,
) -> dict[int, list[tuple[float, Any]]]:
    """Deterministic, evenly spaced arrivals (for reproducible unit tests).

    Senders are interleaved round-robin so the aggregate stream is evenly
    spaced at ``rate`` msg/s.
    """
    if rate <= 0 or duration <= 0:
        raise ConfigurationError("rate and duration must be positive")
    chosen = list(senders) if senders is not None else list(range(n))
    interval = 1.0 / rate
    schedules: dict[int, list[tuple[float, Any]]] = {pid: [] for pid in chosen}
    counters = {pid: 0 for pid in chosen}
    t = start + interval
    slot = 0
    while t < start + duration:
        pid = chosen[slot % len(chosen)]
        counters[pid] += 1
        schedules[pid].append((t, payload(pid, counters[pid])))
        slot += 1
        t += interval
    return schedules


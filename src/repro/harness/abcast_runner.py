"""Atomic-broadcast runner: build a cluster, drive a send schedule, check order.

Used by the integration tests and by the Figure-2/Figure-3 latency benches.
Each node hosts one abcast module (C-Abcast, WABCast or Multi-Paxos — the
factory decides) plus, optionally, an oracle failure detector.  The send
schedule is injected through node timers so a-broadcast work is accounted by
the node CPU model like any other event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.abcast_base import AbcastModule, AppMessage
from repro.errors import ConfigurationError, TerminationFailure
from repro.harness.checkers import (
    check_abcast_validity,
    check_uniform_total_order,
)
from repro.harness.cluster import ClusterRun, normalise
from repro.harness.registry import ABCAST
from repro.sim.kernel import Simulator
from repro.sim.node import Node
from repro.sim.process import Environment, HostProcess

__all__ = ["AbcastHost", "AbcastRunResult", "run_abcast", "schedules_of"]

ABCAST_SCOPE = ("abc",)


class AbcastHost(HostProcess):
    """Node-level process hosting one atomic-broadcast module."""

    #: Flipped on by the obs runtime: the hosted module then emits the
    #: detailed propose/round trace kinds through ``tracer``.
    obs_detail = False

    def __init__(
        self,
        module_factory: Callable[["AbcastHost", Environment], AbcastModule],
        schedule: Sequence[tuple[float, Any]] = (),
        tracer=None,
    ) -> None:
        super().__init__()
        self._module_factory = module_factory
        self._schedule = sorted(schedule, key=lambda item: item[0])
        self._next_send = 0
        self.tracer = tracer
        self.abcast: AbcastModule | None = None
        #: What this host's ``a_broadcast`` calls returned, in call order
        #: (the validity check's and the latency metrics' input).
        self.broadcast_log: list[AppMessage] = []
        self.delivery_times: dict[tuple[int, int], float] = {}

    def on_start(self) -> None:
        self.abcast = self.attach(
            ABCAST_SCOPE, lambda env: self._module_factory(self, env)
        )
        self.abcast.set_on_deliver(self._record_delivery)
        if self.obs_detail and self.tracer is not None:
            self.abcast.enable_obs(self.tracer)
        self.abcast.on_start()
        self._arm_next_send()

    def _arm_next_send(self) -> None:
        if self._next_send < len(self._schedule):
            at, _ = self._schedule[self._next_send]
            self.env.set_timer("send", max(0.0, at - self.env.now()))

    def on_plain_timer(self, name: Any) -> None:
        if name != "send":
            return
        _, payload = self._schedule[self._next_send]
        self._next_send += 1
        message = self.abcast.a_broadcast(payload)
        self.broadcast_log.append(message)
        if self.tracer is not None:
            self.tracer.emit_broadcast(self.env.now(), self.env.pid, message.msg_id)
        self._arm_next_send()

    def _record_delivery(self, message: AppMessage) -> None:
        self.delivery_times[message.msg_id] = self.env.now()
        if self.tracer is not None:
            self.tracer.emit_deliver(self.env.now(), self.env.pid, message.msg_id)


@dataclass
class AbcastRunResult:
    """Outcome of one simulated atomic-broadcast run."""

    deliveries: dict[int, list[tuple[int, int]]]
    delivery_times: dict[int, dict[tuple[int, int], float]]
    broadcast: dict[tuple[int, int], AppMessage]
    crashed: list[int]
    duration: float
    network_stats: dict
    sim: Simulator = field(repr=False)
    hosts: dict[int, AbcastHost] = field(repr=False)
    nodes: dict[int, Node] = field(repr=False, default_factory=dict)

    def latency_of(self, msg_id: tuple[int, int]) -> float | None:
        """Paper's latency: shortest delay between a-broadcast and a-deliver."""
        message = self.broadcast[msg_id]
        times = [
            table[msg_id] for table in self.delivery_times.values() if msg_id in table
        ]
        if not times:
            return None
        return min(times) - message.sent_at

    def latencies(self, window: tuple[float, float] | None = None) -> list[float]:
        """Latencies of all delivered messages (optionally sent inside ``window``)."""
        out = []
        for msg_id, message in self.broadcast.items():
            if window is not None and not window[0] <= message.sent_at <= window[1]:
                continue
            latency = self.latency_of(msg_id)
            if latency is not None:
                out.append(latency)
        return out

    @property
    def delivered_count(self) -> int:
        return max((len(seq) for seq in self.deliveries.values()), default=0)


def run_abcast(
    make_module,
    n: int | None = None,
    schedules: Mapping[int, Sequence[tuple[float, Any]]] | None = None,
    seed: int = 0,
    delay=None,
    datagram_delay=None,
    service_time: float = 0.0,
    crash_at: Mapping[int, float] | None = None,
    initially_crashed: tuple[int, ...] = (),
    detection_delay: float = 0.0,
    horizon: float = 60.0,
    check: bool = True,
    require_all_delivered: bool = True,
    use_oracle_fd: bool = True,
    max_events: int | None = None,
    capacity=None,
    nemesis=None,
    tracer=None,
    obs=None,
    ctx=None,
) -> AbcastRunResult:
    """Run one atomic-broadcast scenario on a fresh simulated cluster.

    The canonical description of a run is an
    :class:`repro.engine.spec.AbcastRunSpec`: ``run_abcast(spec)`` resolves
    the protocol through the registry and generates the workload from the
    spec.  Otherwise ``make_module(pid, env, oracle, host)`` builds the
    per-process module (a registry name string also works), ``schedules``
    maps pid -> [(send_time, payload), ...] and the keywords describe the
    cluster.  Observation goes in ``ctx`` (a :class:`RunContext`), or in
    its short spelling ``tracer=``/``obs=``.
    """
    # Local: the engine sits above the harness.
    from repro.engine.spec import AbcastRunSpec, ClusterSpec

    spec, make_module, ctx = normalise(
        make_module, AbcastRunSpec, ABCAST, ctx, tracer, obs
    )
    if spec is not None:
        n, schedules, seed, horizon = spec.n, schedules_of(spec), spec.seed, spec.horizon
        crash_at, check, max_events = spec.crash_at, spec.check, spec.max_events
        require_all_delivered = spec.require_all_delivered
        batch, nemesis, cluster = spec.batch, spec.nemesis, spec.cluster
    elif n is None or schedules is None:
        raise ConfigurationError("run_abcast needs n and schedules (or a RunSpec)")
    else:
        batch = True
        cluster = ClusterSpec(
            delay=delay,
            datagram_delay=datagram_delay,
            capacity=capacity,
            service_time=service_time,
            detection_delay=detection_delay,
            initially_crashed=tuple(initially_crashed),
        )
    if n < 2:
        raise ConfigurationError("atomic broadcast needs at least two processes")

    def make_host(pid: int, oracle) -> AbcastHost:
        return AbcastHost(
            module_factory=lambda h, env: make_module(pid, env, oracle, h),
            schedule=schedules.get(pid, ()),
            tracer=ctx.tracer,
        )

    run = ClusterRun(ctx, range(n), make_host, cluster, seed, batch, use_oracle_fd)
    run.launch(dict(crash_at or ()), nemesis)
    sim = run.fabric.sim
    sim.run(until=horizon, max_events=max_events)

    hosts = run.hosts
    deliveries = {
        pid: host.abcast.delivered_ids for pid, host in hosts.items() if host.abcast
    }
    broadcast = {
        message.msg_id: message
        for host in hosts.values()
        for message in host.broadcast_log
    }
    crashed = run.crashed

    def checks() -> None:
        check_uniform_total_order(deliveries)
        check_abcast_validity(broadcast, deliveries)
        if require_all_delivered:
            expected = {
                mid
                for mid, msg in broadcast.items()
                if msg.origin not in crashed  # crashed senders' msgs may be lost
            }
            alive = [pid for pid in run.pids if pid not in crashed]
            for pid in alive:
                missing = expected - set(deliveries[pid])
                if missing:
                    raise TerminationFailure(
                        f"p{pid} never a-delivered {sorted(missing)[:5]} "
                        f"({len(missing)} missing) within {horizon}s"
                    )

    if check:
        run.check(checks, max_events, horizon)

    return AbcastRunResult(
        deliveries=deliveries,
        delivery_times={pid: host.delivery_times for pid, host in hosts.items()},
        broadcast=broadcast,
        crashed=crashed,
        duration=sim.now,
        network_stats=run.fabric.network.stats.snapshot(),
        sim=sim,
        hosts=hosts,
        nodes=run.nodes,
    )


def schedules_of(spec) -> dict[int, list[tuple[float, Any]]]:
    """The per-pid send schedules an :class:`AbcastRunSpec` describes."""
    # Imported lazily: repro.workload's package __init__ pulls in the
    # experiment module, which imports the engine.
    from repro.workload.generator import poisson_schedule, uniform_schedule

    if spec.workload == "poisson":
        return poisson_schedule(spec.n, spec.rate, spec.duration, seed=spec.seed)
    return uniform_schedule(spec.n, spec.rate, spec.duration)

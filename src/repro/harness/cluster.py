"""The fabric every run is built on, and the one pipeline of abcast and
consensus runs.

:class:`Fabric` is the only code outside :mod:`repro.sim` that constructs
a :class:`Simulator` and a :class:`Network`; the RSM runners build their
replica groups (:mod:`repro.rsm.group`) on one too.  :class:`ClusterRun`
takes an abcast or consensus run through build → launch → run → check;
the runners only normalise their input, build their hosts and gather
their results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError, EventBudgetExhausted, ReproError
from repro.fd.oracle import OracleFailureDetector
from repro.harness.registry import get_protocol
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.process import HostProcess
from repro.sim.storage import StorageFabric

__all__ = ["ClusterRun", "Fabric", "check_pids", "normalise"]


@dataclass
class Fabric:
    """What a run is built on, owned by the caller: one kernel's worth.

    Groups sharing a fabric share its RNG streams, its network and its
    trace; ``detail`` switches the hosts' detailed obs records on.
    """

    sim: Simulator
    network: Network
    storage: StorageFabric
    tracer: Any = None
    detail: bool = False

    @classmethod
    def fresh(
        cls,
        cluster: Any,
        seed: int,
        batch: bool = True,
        tracer: Any = None,
        detail: bool = False,
    ) -> "Fabric":
        """A new kernel, network and storage fabric shaped by a
        :class:`~repro.engine.spec.ClusterSpec`."""
        sim = Simulator(seed=seed, batch=batch)
        network = Network(
            sim,
            delay=cluster.delay,
            datagram_delay=cluster.datagram_delay,
            datagram_loss=cluster.datagram_loss,
            capacity=cluster.capacity,
        )
        return cls(sim, network, StorageFabric(), tracer, detail)


def normalise(make_module: Any, spec_type: type, kind: str, ctx, tracer, obs):
    """``(spec or None, factory, ctx)`` of a runner's arguments.

    The first argument is a run spec (its protocol is resolved through the
    registry), a registry name, or a factory.  ``tracer=``/``obs=`` are the
    runners' short spelling of ``ctx=``, folded by the one resolution rule
    of :meth:`RunContext.resolve`.
    """
    from repro.engine.context import RunContext  # local: engine sits above us

    ctx = RunContext.resolve(ctx, tracer, obs)
    spec = make_module if isinstance(make_module, spec_type) else None
    if spec is not None:
        make_module = spec.protocol
    if isinstance(make_module, str):
        make_module = get_protocol(make_module, kind=kind).factory
    return spec, make_module, ctx


def check_pids(field: str, pids: Iterable[int], known: Sequence[int]) -> None:
    """Reject a per-pid run input naming a process the cluster lacks."""
    for pid in pids:
        if pid not in known:
            raise ConfigurationError(f"{field} names unknown replica {pid}")


class ClusterRun:
    """An abcast or consensus run on a fresh fabric shaped by ``cluster``
    (a :class:`~repro.engine.spec.ClusterSpec`).

    **Build** (here): the oracle failure detector unless ``use_oracle`` is
    off, then per pid in order ``make_host(pid, oracle)`` and its node.
    """

    def __init__(
        self,
        ctx: Any,
        pids: Sequence[int],
        make_host: Callable[[int, Any], HostProcess],
        cluster: Any,
        seed: int,
        batch: bool = True,
        use_oracle: bool = True,
    ) -> None:
        self.ctx = ctx
        self.pids = list(pids)
        self.fabric = fabric = Fabric.fresh(
            cluster, seed, batch, ctx.tracer, ctx.detail
        )
        self.oracle = (
            OracleFailureDetector(
                fabric.sim,
                self.pids,
                detection_delay=cluster.detection_delay,
                initially_crashed=cluster.initially_crashed,
            )
            if use_oracle
            else None
        )
        self.initially_crashed = tuple(cluster.initially_crashed)
        self.hosts: dict[int, Any] = {}
        self.nodes: dict[int, Node] = {}
        for pid in self.pids:
            host = self.hosts[pid] = make_host(pid, self.oracle)
            if fabric.detail:
                host.obs_detail = True
            self.nodes[pid] = Node(
                fabric.sim,
                fabric.network,
                pid,
                self.pids,
                host,
                service_time=cluster.service_time,
            )

    def launch(self, crash_at: Mapping[int, float], nemesis: Any = None) -> None:
        """**Launch**, in the order kernel sequence numbers (same-time
        tie-breaks) depend on: oracle watch → obs install → initial crashes
        → node starts → ``crash_at`` → nemesis."""
        check_pids("crash_at", crash_at, self.pids)
        sim, network, nodes = self.fabric.sim, self.fabric.network, self.nodes
        if self.oracle is not None:
            self.oracle.watch(nodes)
        if self.ctx.obs is not None:
            self.ctx.obs.install(sim, network=network, oracle=self.oracle)
        for pid in self.initially_crashed:
            nodes[pid].crash()
        for pid, node in nodes.items():
            if pid not in self.initially_crashed:
                node.start()
        for pid, at in crash_at.items():
            nodes[pid].crash_at(at)
        if nemesis:
            from repro.nemesis.inject import NemesisRuntime  # local: sits above us

            NemesisRuntime(
                nemesis,
                sim=sim,
                network=network,
                nodes=nodes,
                oracle=self.oracle,
                tracer=self.fabric.tracer,
            ).install()

    @property
    def crashed(self) -> list[int]:
        return [pid for pid, node in self.nodes.items() if node.crashed]

    def check(
        self, checks: Callable[[], None], max_events: int | None, horizon: float
    ) -> None:
        """**Check** the run: a truncated one fails first, then the kind's
        own ``checks``; a failure is pinned to the flight recorder."""
        sim = self.fabric.sim
        try:
            if sim.exhausted:
                raise EventBudgetExhausted.at(max_events, sim.now, horizon)
            checks()
        except ReproError as err:
            self.ctx.attach_failure(err)
            raise

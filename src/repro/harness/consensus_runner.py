"""Single-instance consensus runner: build a cluster, run one instance, check it.

This is the workhorse behind most protocol tests and the step-count/message
benchmarks (Table 1, ablations A1/A2).  It assembles a simulated cluster,
wires the requested failure-detector flavour, runs one consensus instance to
quiescence and returns a :class:`ConsensusRunResult` that has already been
validated against Agreement and Validity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.interfaces import ConsensusModule, DecisionRecord
from repro.errors import ConfigurationError, TerminationFailure
from repro.fd.heartbeat import HeartbeatSuspector
from repro.fd.base import omega_from_suspects
from repro.harness.checkers import check_consensus_agreement, check_consensus_validity
from repro.harness.cluster import ClusterRun, check_pids, normalise
from repro.harness.registry import CONSENSUS
from repro.sim.kernel import Simulator
from repro.sim.node import Node
from repro.sim.process import Environment, HostProcess

__all__ = ["ConsensusRunResult", "ConsensusHost", "run_consensus", "CONSENSUS_SCOPE"]

CONSENSUS_SCOPE = ("cons",)
FD_SCOPE = ("fd",)


class ConsensusHost(HostProcess):
    """A node-level process hosting one consensus module (plus, optionally,
    a heartbeat failure detector sharing the same node)."""

    #: Flipped on by the obs runtime: the hosted module (and any heartbeat
    #: detector) then emits the detailed trace kinds through ``tracer``.
    obs_detail = False

    def __init__(
        self,
        module_factory: Callable[["ConsensusHost", Environment], ConsensusModule],
        proposal: Any,
        propose_at: float = 0.0,
        fd_factory: Callable[[Environment], Any] | None = None,
        tracer=None,
    ) -> None:
        super().__init__()
        self._module_factory = module_factory
        self._fd_factory = fd_factory
        self.proposal = proposal
        self.propose_at = propose_at
        self.tracer = tracer
        self.consensus: ConsensusModule | None = None
        self.fd_module: Any = None
        self.decision_value: Any = None
        self.decided_at: float | None = None

    def on_start(self) -> None:
        if self._fd_factory is not None:
            self.fd_module = self.attach(FD_SCOPE, self._fd_factory)
            if self.obs_detail and self.tracer is not None:
                self.fd_module.tracer = self.tracer
            self.fd_module.on_start()
        self.consensus = self.attach(
            CONSENSUS_SCOPE, lambda env: self._module_factory(self, env)
        )
        self.consensus.set_on_decide(self._record_decision)
        if self.obs_detail and self.tracer is not None:
            self.consensus.enable_obs(self.tracer)
        if self.propose_at <= 0.0:
            self.consensus.propose(self.proposal)
        else:
            self.env.set_timer("propose", self.propose_at)

    def on_plain_timer(self, name: Any) -> None:
        if name == "propose" and not self.consensus.proposed:
            self.consensus.propose(self.proposal)

    def _record_decision(self, value: Any) -> None:
        self.decision_value = value
        self.decided_at = self.env.now()
        if self.tracer is not None:
            record = self.consensus.decision
            self.tracer.emit_decide(
                self.env.now(), self.env.pid, value, record.steps, record.via
            )


@dataclass
class ConsensusRunResult:
    """Outcome of one simulated consensus instance."""

    proposals: dict[int, Any]
    decisions: dict[int, Any]
    records: dict[int, DecisionRecord]
    crashed: list[int]
    duration: float
    network_stats: dict
    sim: Simulator = field(repr=False)
    nodes: dict[int, Node] = field(repr=False)

    @property
    def min_steps(self) -> int:
        """Communication steps of the earliest in-round decision."""
        in_round = [r.steps for r in self.records.values() if r.via == "round"]
        if not in_round:
            raise TerminationFailure("no process decided inside the round structure")
        return min(in_round)

    @property
    def messages_sent(self) -> int:
        return self.network_stats["sent"]

    def steps_of(self, pid: int) -> int:
        return self.records[pid].steps


def run_consensus(
    make_module,
    proposals: Mapping[int, Any] | None = None,
    seed: int = 0,
    delay=None,
    crash_at: Mapping[int, float] | None = None,
    initially_crashed: tuple[int, ...] = (),
    detection_delay: float = 0.0,
    fd_factory: Callable[[int, Environment], Any] | None = None,
    propose_at: Mapping[int, float] | None = None,
    horizon: float = 60.0,
    check: bool = True,
    require_all_alive_decide: bool = True,
    batch: bool = True,
    nemesis=None,
    tracer=None,
    obs=None,
    ctx=None,
) -> ConsensusRunResult:
    """Run one consensus instance on a fresh simulated cluster.

    The canonical description of a run is an
    :class:`repro.engine.spec.ConsensusRunSpec`: ``run_consensus(spec)``
    resolves the protocol through the registry.  Otherwise
    ``make_module(pid, env, oracle, host)`` builds the protocol module for
    each process (a registry name string also works); ``oracle`` is the
    shared :class:`OracleFailureDetector` (None when ``fd_factory`` supplies
    a message-based detector instead — in that case the factory's module is
    attached under the host's FD scope and the consensus factory can pull
    views off ``host.fd_module``).  Observation goes in ``ctx`` (a
    :class:`RunContext`), or in its short spelling ``tracer=``/``obs=``.

    Consensus runs use the plain reliable network: the datagram and
    capacity fields of a spec's cluster are ignored.
    """
    # Local: the engine sits above the harness.
    from repro.engine.spec import ClusterSpec, ConsensusRunSpec

    spec, make_module, ctx = normalise(
        make_module, ConsensusRunSpec, CONSENSUS, ctx, tracer, obs
    )
    if spec is not None:
        proposals = dict(enumerate(spec.proposals))
        seed, horizon, check, batch = spec.seed, spec.horizon, spec.check, spec.batch
        crash_at, propose_at = spec.crash_at, spec.propose_at
        require_all_alive_decide = spec.require_all_alive_decide
        nemesis = spec.nemesis
        cluster = ClusterSpec(
            delay=spec.cluster.delay,
            service_time=spec.cluster.service_time,
            detection_delay=spec.cluster.detection_delay,
            initially_crashed=spec.cluster.initially_crashed,
        )
    elif proposals is None:
        raise ConfigurationError("run_consensus needs proposals (or a RunSpec)")
    else:
        cluster = ClusterSpec(
            delay=delay,
            detection_delay=detection_delay,
            initially_crashed=tuple(initially_crashed),
        )
    pids = sorted(proposals)
    if len(pids) < 2:
        raise ConfigurationError("consensus needs at least two processes")
    propose_at = dict(propose_at or ())
    check_pids("propose_at", propose_at, pids)

    def make_host(pid: int, oracle) -> ConsensusHost:
        return ConsensusHost(
            module_factory=lambda h, env: make_module(pid, env, oracle, h),
            proposal=proposals[pid],
            propose_at=propose_at.get(pid, 0.0),
            fd_factory=(lambda env: fd_factory(pid, env)) if fd_factory else None,
            tracer=ctx.tracer,
        )

    run = ClusterRun(ctx, pids, make_host, cluster, seed, batch, fd_factory is None)
    run.launch(dict(crash_at or ()), nemesis)
    sim = run.fabric.sim
    sim.run(until=horizon)

    decided = {
        pid: host
        for pid, host in run.hosts.items()
        if host.consensus is not None and host.consensus.decided
    }
    decisions = {pid: host.decision_value for pid, host in decided.items()}
    records = {pid: host.consensus.decision for pid, host in decided.items()}
    crashed = run.crashed

    def checks() -> None:
        alive = [pid for pid in pids if pid not in crashed]
        if require_all_alive_decide:
            missing = [pid for pid in alive if pid not in decisions]
            if missing:
                raise TerminationFailure(
                    f"correct processes {missing} did not decide within {horizon}s"
                )
        check_consensus_agreement(decisions)
        check_consensus_validity(dict(proposals), decisions)

    if check:
        run.check(checks, None, horizon)

    return ConsensusRunResult(
        proposals=dict(proposals),
        decisions=decisions,
        records=records,
        crashed=crashed,
        duration=sim.now,
        network_stats=run.fabric.network.stats.snapshot(),
        sim=sim,
        nodes=run.nodes,
    )


def heartbeat_fd_factory(
    period: float = 5e-3, initial_timeout: float = 20e-3, timeout_increment: float = 10e-3
) -> Callable[[int, Environment], HeartbeatSuspector]:
    """Factory-of-factories for message-based ◇P detectors in the runner."""

    def build(pid: int, env: Environment) -> HeartbeatSuspector:
        return HeartbeatSuspector(
            env,
            period=period,
            initial_timeout=initial_timeout,
            timeout_increment=timeout_increment,
        )

    return build


def derive_omega(host: ConsensusHost):
    """Ω view derived from a host's heartbeat ◇P module."""
    if host.fd_module is None:
        raise ConfigurationError("host has no attached failure-detector module")
    return omega_from_suspects(host.fd_module, host.env.peers)

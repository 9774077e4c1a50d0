"""One replica group, assembled once: the wiring behind every RSM runner.

A *replica group* is one instance of the paper's C-Abcast (or any other
registered abcast protocol) replicating one state machine: a failure
detector, ``group_size`` :class:`~repro.rsm.replica.RsmReplica` nodes, the
serving set clients fail over within, the sessions pinned to the group, and
the crash → learner-rejoin path.  The two runners differ only in how many
kernels they put the groups on:

* :func:`repro.rsm.runner.run_rsm` — every group on one kernel (one group
  for an unsharded spec), plus, when sharded, the key router, the 2PC
  :class:`~repro.rsm.shard.TxnDriver` sessions and the cross-shard
  serializability check;
* :func:`repro.rsm.parallel.run_parallel_sharded_rsm` — N groups on N
  kernels, one per worker-process task.

The assembly has two stages.  **Build**: :class:`ReplicaGroup` constructs the
oracle, replicas and nodes on a caller-supplied
:class:`~repro.harness.cluster.Fabric` (kernel, network, stable storage,
tracer), and :func:`launch` takes every group of one
kernel from there to "ready to run" in the one cross-group phase order the
kernel's sequence numbers (same-time tie-breaks) depend on.  **Check**:
:meth:`ReplicaGroup.check` picks the authority replica, runs the per-group
drain checks and returns a :class:`ShardOutcome` — plain picklable data, the
only thing the metrics path reads and the only thing that crosses a process
boundary in a parallel run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.engine.spec import RsmRunSpec
from repro.errors import (
    EventBudgetExhausted,
    LinearizabilityViolation,
    ReproError,
    TerminationFailure,
)
from repro.fd.oracle import OracleFailureDetector
from repro.harness.checkers import (
    check_rsm_exactly_once,
    check_rsm_linearizable,
    check_rsm_log_consistent,
    check_rsm_session_order,
    check_uniform_total_order,
)
from repro.harness.cluster import Fabric
from repro.harness.registry import ABCAST, get_protocol
from repro.rsm.client import CommandStream, ServingSet, SessionDriver, ShardKeyStream
from repro.rsm.machine import KvStore, TxnCommand, TxnKvStore
from repro.rsm.replica import ApplyRecord, RsmReplica
from repro.rsm.session import Request
from repro.sim.kernel import derive_seed
from repro.sim.node import Node
from repro.sim.trace import LogColumns

__all__ = [
    "ReplicaGroup",
    "ShardOutcome",
    "check_acknowledged",
    "launch",
    "session_stats",
]


@dataclass
class ShardOutcome:
    """Everything one checked group reports, as plain data.

    ``failure`` carries the group's first checker error instead of raising,
    so a caller holding several groups can gather every outcome (and, in a
    parallel run, merge every trace) before re-raising the first failure in
    shard order.  ``trace`` (or, under a counting tracer, ``trace_tally``),
    ``network_stats`` and ``kernel`` describe the fabric rather than the
    group; only a group that owned its fabric — one task of the parallel
    map — fills them in.  ``trace`` holds its trace log's
    :class:`~repro.sim.trace.LogColumns`, not a record per row.
    """

    shard: int
    authority: int
    applied_index: int
    digest: str
    dedup_suppressed: int
    commit_order: list[tuple[str, tuple[str, ...]]]
    linearizable: bool
    crashed: list[int]
    snapshots_taken: int
    snapshot_bytes: int
    learner_stats: dict[int, dict]
    sessions: dict[int, dict]
    failure: ReproError | None = None
    trace: LogColumns | None = None
    trace_tally: dict[str, tuple[float, int]] = field(default_factory=dict)
    network_stats: dict = field(default_factory=dict)
    kernel: dict = field(default_factory=dict)


def session_stats(driver: Any) -> dict:
    """The latency/retry surface of one session driver, as plain data."""
    return {
        "latencies": driver.latencies(),
        "pending": {seq: rec.submit_at for seq, rec in driver.pending.items()},
        "retries": driver.retries,
    }


def check_acknowledged(sessions: Mapping[int, dict]) -> None:
    """Client termination: every submitted request was acknowledged.

    The one drain check that belongs to the caller rather than the group:
    only the caller knows which sessions it answers for (one group's, or a
    whole run's including the 2PC sessions that span groups).
    """
    unacked = {
        session: sorted(stats["pending"])
        for session, stats in sessions.items()
        if stats["pending"]
    }
    if unacked:
        raise TerminationFailure(
            f"requests never acknowledged within the horizon: {unacked}"
        )


def _arrival_plan(spec: RsmRunSpec, session: int) -> list[float]:
    """Open-loop Poisson plan for one session (aggregate rate split evenly)."""
    rng = random.Random(derive_seed(spec.seed, "rsm-arrivals", session))
    per_session = spec.rate / spec.clients
    t = 0.0
    plan: list[float] = []
    while True:
        t += rng.expovariate(per_session)
        if t >= spec.duration:
            return plan
        plan.append(t)


class _Views(Mapping):
    """pid -> ``view(record)``, a fresh iterator over one replica's apply
    record, made when a checker reaches that pid: the drain checks hold one
    replica's view at a time instead of lists for every replica at once."""

    def __init__(
        self, records: dict[int, ApplyRecord], view: Callable[[ApplyRecord], Iterator]
    ) -> None:
        self._records = records
        self._view = view

    def __getitem__(self, pid: int) -> Iterator:
        return self._view(self._records[pid])

    def __iter__(self) -> Iterator[int]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)


class ReplicaGroup:
    """One consensus group of an RSM run, built on a caller's fabric.

    ``shard=None`` is the spec's single unsharded service: pids ``0..n-1``,
    a plain :class:`KvStore`, sessions drawing from the whole key space.
    ``shard=s`` is group ``s`` of a sharded topology: the serial runner's
    global pid numbering, a :class:`TxnKvStore` (2PC steps are ordinary
    commands), sessions drawing from ``keys``, the shard's key slice.
    """

    def __init__(
        self,
        spec: RsmRunSpec,
        fabric: Fabric,
        shard: int | None = None,
        keys: tuple[str, ...] = (),
    ) -> None:
        self.spec = spec
        self.fabric = fabric
        self.shard = shard
        self.keys = keys
        cluster = spec.cluster
        if shard is None:
            self.pids = list(range(spec.n))
            self.initially_crashed = tuple(cluster.initially_crashed)
            self._machine = KvStore
        else:
            gsize = spec.group_size
            self.pids = list(range(shard * gsize, (shard + 1) * gsize))
            self.initially_crashed = tuple(
                pid for pid in cluster.initially_crashed if pid in self.pids
            )
            self._machine = TxnKvStore
        self._protocol = get_protocol(spec.protocol, kind=ABCAST)
        self.oracle = OracleFailureDetector(
            fabric.sim,
            self.pids,
            detection_delay=cluster.detection_delay,
            initially_crashed=self.initially_crashed,
        )
        if fabric.detail:
            self.oracle.tracer = fabric.tracer  # suspect/trust/leader-change
        self.replicas: dict[int, RsmReplica] = {}  # final incarnation per pid
        self.nodes: dict[int, Node] = {}
        for pid in self.pids:
            replica = self.replicas[pid] = self._replica(pid, serving=True)
            node = self.nodes[pid] = Node(
                fabric.sim,
                fabric.network,
                pid,
                self.pids,
                replica,
                service_time=cluster.service_time,
            )
            # Crash-only oracle wiring: a replica that rejoins does so as a
            # learner outside the broadcast protocol, so the failure detector
            # must keep treating it as crashed (re-electing a recovered pid as
            # Ω leader would stall consensus behind a non-participant).
            node.add_crash_listener(self.oracle.on_crash)
        self.first_lives = dict(self.replicas)  # pre-crash incarnations
        self.learners: dict[int, RsmReplica] = {}  # rejoined replicas
        self.serving = ServingSet(
            pid for pid in self.pids if pid not in self.initially_crashed
        )
        self.drivers: dict[int, SessionDriver] = {}

    def _replica(self, pid: int, serving: bool) -> RsmReplica:
        """A serving replica, or (``serving=False``) a protocol-less learner."""
        spec = self.spec
        factory = None
        if serving:
            info, oracle = self._protocol, self.oracle

            def factory(host, env):
                return info.factory(pid, env, oracle, host)

        replica = RsmReplica(
            machine=self._machine(),
            store=self.fabric.storage.store(pid),
            module_factory=factory,
            batch_max=spec.batch_max,
            batch_delay=spec.batch_delay,
            snapshot_every=spec.snapshot_every,
            catchup_interval=spec.catchup_interval,
            tracer=self.fabric.tracer,
        )
        if self.fabric.detail:
            replica.obs_detail = True
        return replica

    # ------------------------------------------------------------ client side

    def add_session(self, session: int) -> SessionDriver:
        """Pin client ``session`` to this group (homes rotate over replicas)."""
        spec = self.spec
        serving_now = self.serving.pids()
        think = spec.clients / spec.rate
        open_loop = spec.workload == "open"
        if self.shard is None:
            stream = CommandStream(session, spec.seed, spec.keys)
        else:
            stream = ShardKeyStream(session, spec.seed, spec.keys, self.keys)
        driver = self.drivers[session] = SessionDriver(
            session=session,
            home=serving_now[(session // spec.topology.groups) % len(serving_now)],
            nodes=self.nodes,
            replicas=self.replicas,
            serving=self.serving,
            stream=stream,
            duration=spec.duration,
            mode=spec.workload,
            arrivals=_arrival_plan(spec, session) if open_loop else (),
            think_time=0.0 if open_loop else think,
            start_at=think * (session + 1) / spec.clients,
            failover_delay=spec.failover_delay,
        )
        return driver

    def listen(self, drivers: Mapping[int, Any]) -> None:
        """Route this group's commits and crashes to the run's sessions.

        ``drivers`` is the whole kernel's session table, not just this
        group's: a 2PC session commits on, and fails over within, every
        group it touches.
        """
        sim, serving = self.fabric.sim, self.serving

        def route_commit(pid: int, request: Request, result: Any, at: float) -> None:
            driver = drivers.get(request.session)
            if driver is not None:
                driver.on_commit(pid, request, result, at)

        def on_mid_run_crash(pid: int) -> None:
            serving.remove(pid)
            for driver in drivers.values():
                driver.on_replica_crash(pid, sim.now)

        for replica in self.replicas.values():
            replica.add_commit_listener(route_commit)
        for node in self.nodes.values():
            node.add_crash_listener(on_mid_run_crash)

    # --------------------------------------------------- faults and recovery

    def _rejoin(self, pid: int) -> RsmReplica:
        """The learner incarnation a crashed ``pid`` comes back as."""
        learner = self._replica(pid, serving=False)
        self.learners[pid] = learner
        self.replicas[pid] = learner
        return learner

    def crash_at(self, pid: int, at: float) -> None:
        """A scripted crash; the replica rejoins ``recover_after`` later."""
        node = self.nodes[pid]
        node.crash_at(at)
        if self.spec.recover_after is not None:
            node.recover_at(at + self.spec.recover_after, lambda: self._rejoin(pid))

    def rejoin_after_nemesis_crash(self, pid: int, at: float) -> None:
        """Nemesis crashes follow the same learner-rejoin path, guarded: the
        op may target a pid already down (or already recovering) at fire
        time, and a replica that never went down must not be restarted."""
        if self.spec.recover_after is None:
            return
        node = self.nodes[pid]

        def recover_if_down() -> None:
            if node.crashed:
                node.recover(self._rejoin(pid))

        self.fabric.sim.schedule_at(at + self.spec.recover_after, recover_if_down)

    # ------------------------------------------------------------ validation

    def check(self) -> ShardOutcome:
        """Pick the authority, run the drain checks, distil the outcome."""
        spec, replicas, learners = self.spec, self.replicas, self.learners
        sharded = self.shard is not None
        where = f"shard {self.shard}: " if sharded else ""
        failure: ReproError | None = None
        linearizable = True
        authority = min(self.pids)
        commit_order: list[tuple[str, tuple[str, ...]]] = []
        try:
            sim = self.fabric.sim
            if spec.check and sim.exhausted:
                # A truncated run: every drain check below would misreport it.
                raise EventBudgetExhausted.at(spec.max_events, sim.now, spec.horizon)
            survivors = self.serving.pids()
            if not survivors:
                of_shard = f" of shard {self.shard}" if sharded else ""
                raise TerminationFailure(
                    f"no serving replica{of_shard} survived the run"
                )
            authority = min(
                survivors, key=lambda pid: (-replicas[pid].applied_index, pid)
            )
            auth = replicas[authority]

            try:
                check_rsm_linearizable(auth.applies.history(), self._machine())
            except LinearizabilityViolation:
                if spec.check:
                    raise
                linearizable = False

            if spec.check:
                check_uniform_total_order(
                    {pid: replicas[pid].abcast.delivered_ids for pid in survivors}
                )
                records = {
                    pid: replicas[pid].applies for pid in (*survivors, *learners)
                }
                rids = _Views(records, ApplyRecord.rids)
                check_rsm_exactly_once(rids)
                check_rsm_session_order(rids)
                check_rsm_log_consistent(_Views(records, ApplyRecord.indexed))
                for pid in survivors:
                    if replicas[pid].digest() != auth.digest():
                        raise TerminationFailure(
                            f"{where}survivor {pid} diverged from replica "
                            f"{authority} at drain"
                        )
                for pid, learner in learners.items():
                    if learner.digest() != auth.digest():
                        raise TerminationFailure(
                            f"{where}recovered replica {pid} did not converge "
                            f"by the horizon (applied "
                            f"{learner.applied_index}/{auth.applied_index})"
                        )
                if sharded and auth.machine.prepared_txids:
                    raise TerminationFailure(
                        f"shard {self.shard} drained with prepared-but-undecided "
                        f"transactions (locks leaked): {auth.machine.prepared_txids}"
                    )

            if sharded:
                # Commit order of transactions here, with the keys each
                # staged (recovered from the same record's prepare entries).
                staged_keys: dict[str, tuple[str, ...]] = {}
                for command, result in auth.applies.history():
                    if not isinstance(command, TxnCommand):
                        continue
                    if command.op == "txn-prepare":
                        staged_keys[command.txid] = command.keys
                    elif command.op == "txn-commit" and result == "committed":
                        commit_order.append(
                            (command.txid, staged_keys.get(command.txid, ()))
                        )
        except ReproError as err:
            failure = err

        auth = replicas[authority]
        lives = [*self.first_lives.values(), *learners.values()]
        return ShardOutcome(
            shard=self.shard or 0,
            authority=authority,
            applied_index=auth.applied_index,
            digest=auth.digest(),
            dedup_suppressed=auth.dedup.suppressed,
            commit_order=commit_order,
            linearizable=linearizable,
            crashed=sorted(
                {pid for pid, _ in spec.crash_at if pid in self.nodes}
                | set(self.initially_crashed)
            ),
            snapshots_taken=sum(r.snapshots_taken for r in lives),
            snapshot_bytes=sum(r.snapshot_bytes for r in lives),
            learner_stats={
                pid: {
                    "installed_index": learner.recovered_from_index,
                    "replayed": learner.replayed,
                    "snapshot_installs": learner.snapshot_installs,
                    "digest": learner.digest(),
                }
                for pid, learner in learners.items()
            },
            sessions={s: session_stats(d) for s, d in self.drivers.items()},
            failure=failure,
        )


class _OracleRouter:
    """Routes nemesis FD flaps to the victim's own group's oracle."""

    def __init__(self, by_pid: Mapping[int, ReplicaGroup]) -> None:
        self._by_pid = by_pid

    def on_crash(self, pid: int) -> None:
        self._by_pid[pid].oracle.on_crash(pid)

    def on_recovery(self, pid: int) -> None:
        self._by_pid[pid].oracle.on_recovery(pid)


def launch(
    groups: Sequence[ReplicaGroup],
    nemesis: Any = None,
    extra_drivers: Mapping[int, Any] | None = None,
) -> dict[int, Any]:
    """Take every group of one kernel from built to ready-to-run.

    Returns the kernel's session table (session → driver, plain sessions in
    session order, then ``extra_drivers`` — the 2PC sessions).  The phases
    run across *all* groups before the next begins, because each consumes
    kernel sequence numbers and those break same-time ties: initial crashes
    and node starts in pid order → sessions in global session order →
    listeners → ``start()`` in session order → ``crash_at`` in spec order →
    nemesis.  ``groups`` need not be a whole topology (a parallel task
    launches one shard); sessions and crashes of absent shards are skipped.
    """
    spec, fabric = groups[0].spec, groups[0].fabric
    for group in groups:
        for pid in group.initially_crashed:
            group.nodes[pid].crash()
    for group in groups:
        for pid, node in group.nodes.items():
            if pid not in group.initially_crashed:
                node.start()

    by_shard = {group.shard or 0: group for group in groups}
    drivers: dict[int, Any] = {}
    for session in range(spec.clients):
        group = by_shard.get(session % spec.topology.groups)
        if group is not None:
            drivers[session] = group.add_session(session)
    if extra_drivers:
        drivers.update(extra_drivers)
    for group in groups:
        group.listen(drivers)
    for driver in drivers.values():
        driver.start()

    by_pid = {pid: group for group in groups for pid in group.pids}
    for pid, at in spec.crash_at:
        if pid in by_pid:
            by_pid[pid].crash_at(pid, at)

    if nemesis:
        from repro.nemesis.inject import NemesisRuntime  # local: sits above us

        NemesisRuntime(
            nemesis,
            sim=fabric.sim,
            network=fabric.network,
            nodes={pid: group.nodes[pid] for pid, group in by_pid.items()},
            oracle=_OracleRouter(by_pid),
            tracer=fabric.tracer,
            crash_hook=lambda pid, at: by_pid[pid].rejoin_after_nemesis_crash(pid, at),
        ).install()
    return drivers

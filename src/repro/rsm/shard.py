"""Sharded multi-group RSM: many consensus groups, one kernel, 2PC on top.

The paper evaluates one n-node group; a production-scale store runs *many*
independent groups (shards) side by side and scales along the shard axis.
This module partitions the KV keyspace across ``TopologySpec.groups``
consensus groups — each a full :class:`~repro.rsm.replica.RsmReplica`
cluster with its own failure detector, serving set and sessions — all
inside one deterministic :class:`~repro.sim.kernel.Simulator`, sharing one
:class:`~repro.sim.network.Network` and storage fabric.

* :class:`ShardRouter` maps keys to shards (``hash`` via CRC-32, or
  ``range`` banding) and hands each shard its key slice;
* plain client sessions are *pinned* to a shard round-robin and draw keys
  only from its slice (:class:`~repro.rsm.client.ShardKeyStream`), so
  per-shard exactly-once dedup and session order carry over unchanged;
* :class:`TxnDriver` sessions issue multi-key transactions spanning shards
  via two-phase commit whose every step (``txn-prepare`` / ``txn-decide`` /
  ``txn-commit`` / ``txn-abort``) is an ordinary replicated command — the
  existing (session, seq) dedup makes retried steps exactly-once across
  leader crashes and client failover, and the coordinator shard's
  replicated decision record makes the outcome crash-safe through the
  snapshot/rejoin path.

Validation extends the single-group checks per shard (total order, exactly
once, session order, log agreement, linearizability by replay, digest and
learner convergence) with cross-shard serializability: the commit order of
transactions on each shard defines conflict edges (shared keys), and the
union over shards must stay acyclic
(:func:`repro.harness.checkers.check_cross_shard_serializable`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any
from zlib import crc32

from repro.engine.context import RunContext
from repro.engine.spec import PARTITIONERS, RsmRunSpec
from repro.errors import ConfigurationError, ReproError, TerminationFailure
from repro.harness.checkers import check_cross_shard_serializable
from repro.harness.cluster import Fabric
from repro.rsm.client import ServingSet, _PendingRequest
from repro.rsm.group import (
    ReplicaGroup,
    ShardOutcome,
    check_acknowledged,
    launch,
    session_stats,
)
from repro.rsm.machine import TxnCommand
from repro.rsm.replica import SUBMIT_TIMER, RsmReplica
from repro.rsm.runner import latency_summary_ms, window_commit_latencies
from repro.rsm.session import Request
from repro.sim.kernel import derive_seed
from repro.sim.node import Node
from repro.sim.trace import KINDS

__all__ = [
    "ShardRouter",
    "TxnRecord",
    "TxnDriver",
    "ShardedRsmRunResult",
    "run_sharded_rsm",
    "shard_pid_groups",
    "sharded_service_metrics",
]


def shard_pid_groups(spec: RsmRunSpec) -> tuple[tuple[int, ...], ...]:
    """Global pid membership of each shard group, in shard order.

    This is the assignment shared by the serial runner and the one-kernel-
    per-shard parallel path (:mod:`repro.rsm.parallel`): pids are numbered
    ``shard * group_size .. (shard + 1) * group_size - 1``, so a parallel
    run's traces carry exactly the serial runner's pids.
    """
    gsize = spec.group_size
    return tuple(
        tuple(range(s * gsize, (s + 1) * gsize))
        for s in range(spec.topology.groups)
    )


class ShardRouter:
    """Maps keys to shards and owns each shard's key slice.

    ``hash`` spreads keys by CRC-32 (stable across processes and Python
    versions, unlike ``hash()``); ``range`` bands the numeric key space into
    contiguous slices.  Both are pure functions of (key, groups), so every
    client and checker agrees on placement without coordination.
    """

    def __init__(self, groups: int, keys: int, partitioner: str = "hash") -> None:
        if partitioner not in PARTITIONERS:
            raise ConfigurationError(
                f"unknown partitioner {partitioner!r}; choices: {PARTITIONERS}"
            )
        if groups < 1:
            raise ConfigurationError("need at least one shard")
        self.groups = groups
        self.keys = keys
        self.partitioner = partitioner
        self._band = -(-keys // groups)  # ceil: only used by "range"
        slices: list[list[str]] = [[] for _ in range(groups)]
        for index in range(keys):
            key = f"k{index}"
            slices[self.shard_of(key)].append(key)
        for shard, slice_keys in enumerate(slices):
            if not slice_keys:
                raise ConfigurationError(
                    f"shard {shard} owns no keys ({keys} keys over {groups} "
                    f"{partitioner}-partitioned shards); add keys or use 'range'"
                )
        self._slices = [tuple(s) for s in slices]

    def shard_of(self, key: str) -> int:
        if self.partitioner == "hash":
            return crc32(key.encode("utf-8")) % self.groups
        return min(int(key[1:]) // self._band, self.groups - 1)

    def keys_for(self, shard: int) -> tuple[str, ...]:
        return self._slices[shard]


@dataclass
class TxnRecord:
    """Lifecycle of one cross-shard transaction, as the client saw it."""

    txid: str
    writes: dict[int, tuple[tuple[str, str], ...]]  # shard -> staged writes
    participants: tuple[int, ...]
    coordinator: int
    begin_at: float
    votes: dict[int, str] = field(default_factory=dict)
    decision: str | None = None
    end_at: float | None = None


class TxnDriver:
    """One closed-loop transaction session: 2PC over shard groups.

    Exactly one replicated step is in flight at a time (prepare each
    participant in shard order, then the coordinator's decide, then
    commit/abort the yes-voters), so the session's seqs reach every shard in
    strictly increasing order and the per-shard session-order invariant
    holds without coordination.  A home-replica crash mid-step re-homes to
    the shard's next serving replica and resubmits the *same* (session,
    seq) — the dedup table makes the retry exactly-once and replays the
    original vote/outcome from its cache.
    """

    def __init__(
        self,
        session: int,
        router: ShardRouter,
        nodes: dict[int, Node],
        servings: dict[int, ServingSet],
        homes: dict[int, int],
        duration: float,
        think_time: float,
        txn_keys: int,
        rng: random.Random,
        start_at: float = 1e-4,
        failover_delay: float = 5e-3,
        tracer=None,
    ) -> None:
        self.session = session
        self.router = router
        self.nodes = nodes
        self.servings = servings
        self.homes = dict(homes)  # shard -> current home replica pid
        self.duration = duration
        self.think_time = think_time
        self.txn_keys = txn_keys
        self.rng = rng
        self.start_at = start_at
        self.failover_delay = failover_delay
        self.tracer = tracer

        self.txns: list[TxnRecord] = []
        self.pending: dict[int, _PendingRequest] = {}  # seq -> in-flight step
        self.acked: dict[int, tuple[float, float]] = {}
        self.retries = 0
        self._next_seq = 0
        self._attempt = 0
        self._txn: TxnRecord | None = None
        self._phase: str | None = None  # "prepare" | "decide" | "finish"
        self._queue: list[tuple[int, TxnCommand]] = []
        self._inflight: tuple[int, int] | None = None  # (seq, shard)

    # ----------------------------------------------------------------- wiring

    def start(self) -> None:
        self._begin_txn(self.start_at)

    def _begin_txn(self, at: float) -> None:
        if at >= self.duration:
            return
        txid = f"t{self.session}.{len(self.txns) + 1}"
        spread = min(self.txn_keys, self.router.groups)
        participants = tuple(sorted(self.rng.sample(range(self.router.groups), spread)))
        writes: dict[int, tuple[tuple[str, str], ...]] = {}
        for shard in participants:
            slice_keys = self.router.keys_for(shard)
            key = slice_keys[self.rng.randrange(len(slice_keys))]
            writes[shard] = ((key, txid),)
        txn = TxnRecord(
            txid=txid,
            writes=writes,
            participants=participants,
            coordinator=participants[0],
            begin_at=at,
        )
        self.txns.append(txn)
        self._txn = txn
        self._phase = "prepare"
        self._queue = [
            (shard, TxnCommand("txn-prepare", txid, writes=writes[shard]))
            for shard in participants
        ]
        if self.tracer is not None:
            self.tracer.emit(
                at,
                self.homes[txn.coordinator],
                KINDS.TXN_BEGIN,
                {"txid": txid, "shards": list(participants)},
            )
        self._submit_next(at)

    def _submit_next(self, at: float) -> None:
        shard, command = self._queue.pop(0)
        self._next_seq += 1
        seq = self._next_seq
        request = Request(self.session, seq, command)
        self.pending[seq] = _PendingRequest(request, at, attempts=0)
        self._inflight = (seq, shard)
        self._schedule_submit(request, shard, at)

    def _schedule_submit(self, request: Request, shard: int, at: float) -> None:
        node = self.nodes[self.homes[shard]]
        record = self.pending[request.seq]
        record.attempts += 1
        self._attempt += 1
        delay = max(0.0, at - node.sim.now)
        node.set_timer((SUBMIT_TIMER, self._attempt, request), delay)

    # ------------------------------------------------------------------- acks

    def on_commit(self, pid: int, request: Request, result: Any, at: float) -> None:
        if request.session != self.session or self._inflight is None:
            return
        seq, shard = self._inflight
        if request.seq != seq or pid != self.homes[shard]:
            return
        record = self.pending.pop(seq, None)
        if record is None:
            return
        self.acked[seq] = (record.submit_at, at)
        self._inflight = None
        txn = self._txn
        command = request.command
        if self._phase == "prepare":
            txn.votes[shard] = result
            if self.tracer is not None:
                self.tracer.emit(
                    at, pid, KINDS.TXN_VOTE,
                    {"txid": txn.txid, "shard": shard, "vote": result},
                )
            if self._queue:
                self._submit_next(at)
                return
            decision = (
                "commit"
                if all(v == "yes" for v in txn.votes.values())
                else "abort"
            )
            self._phase = "decide"
            self._queue = [
                (txn.coordinator, TxnCommand("txn-decide", txn.txid, decision=decision))
            ]
            self._submit_next(at)
            return
        if self._phase == "decide":
            txn.decision = result
            if self.tracer is not None:
                self.tracer.emit(
                    at, pid, KINDS.TXN_DECIDE,
                    {"txid": txn.txid, "decision": result},
                )
            finish_op = "txn-commit" if result == "commit" else "txn-abort"
            self._phase = "finish"
            self._queue = [
                (s, TxnCommand(finish_op, txn.txid))
                for s in txn.participants
                if txn.votes.get(s) == "yes"
            ]
            if self._queue:
                self._submit_next(at)
            else:
                self._end_txn(at)
            return
        # finish phase
        if self._queue:
            self._submit_next(at)
        else:
            self._end_txn(at)

    def _end_txn(self, at: float) -> None:
        txn = self._txn
        txn.end_at = at
        if self.tracer is not None:
            self.tracer.emit(
                at,
                self.homes[txn.coordinator],
                KINDS.TXN_END,
                {"txid": txn.txid, "decision": txn.decision},
            )
        self._txn = None
        self._phase = None
        self._begin_txn(at + self.think_time)

    # --------------------------------------------------------------- failover

    def on_replica_crash(self, pid: int, now: float) -> None:
        rehomed = []
        for shard, home in self.homes.items():
            if home == pid:
                self.homes[shard] = self.servings[shard].next_home(pid)
                rehomed.append(shard)
        if self._inflight is None:
            return
        seq, shard = self._inflight
        if shard in rehomed:
            self.retries += 1
            record = self.pending[seq]
            self._schedule_submit(record.request, shard, now + self.failover_delay)

    # ---------------------------------------------------------------- metrics

    def latencies(self) -> list[tuple[float, float]]:
        return [self.acked[seq] for seq in sorted(self.acked)]

    @property
    def committed(self) -> int:
        return sum(1 for t in self.txns if t.decision == "commit")

    @property
    def aborted(self) -> int:
        return sum(1 for t in self.txns if t.decision == "abort")


@dataclass
class ShardedRsmRunResult:
    """Everything a finished sharded RSM run exposes to metrics and tests.

    ``outcomes`` — one checked :class:`~repro.rsm.group.ShardOutcome` per
    shard, in shard order — is the plain data every metric is computed from,
    identically whether the shards shared this process's kernel or each ran
    on its own in a worker.  The live objects (``replicas`` … ``nodes``)
    exist only for a one-kernel run; a parallel run leaves them empty,
    carries summed kernel counters as ``sim`` and adds its ``parallel``
    report section.
    """

    spec: RsmRunSpec
    router: ShardRouter
    outcomes: list[ShardOutcome]
    duration: float
    network_stats: dict
    sim: Any = field(repr=False)
    replicas: dict[int, RsmReplica] = field(default_factory=dict)  # final incarnations
    first_lives: dict[int, RsmReplica] = field(default_factory=dict)
    learners: dict[int, RsmReplica] = field(default_factory=dict)
    drivers: dict[int, Any] = field(default_factory=dict)  # SessionDriver | TxnDriver
    txn_drivers: dict[int, TxnDriver] = field(default_factory=dict)
    nodes: dict[int, Node] = field(repr=False, default_factory=dict)
    parallel: dict | None = None
    parallel_stats: dict | None = field(repr=False, default=None)

    @property
    def shards(self) -> int:
        return self.router.groups

    @property
    def authorities(self) -> dict[int, int]:
        """shard -> pid of its reference survivor."""
        return {o.shard: o.authority for o in self.outcomes}

    @property
    def commit_orders(self) -> dict[int, list[tuple[str, tuple[str, ...]]]]:
        return {o.shard: o.commit_order for o in self.outcomes}

    @property
    def crashed(self) -> list[int]:
        return [pid for o in self.outcomes for pid in o.crashed]

    @property
    def linearizable(self) -> bool:
        return all(o.linearizable for o in self.outcomes)

    @property
    def sessions(self) -> dict[int, dict]:
        """session -> plain latency/pending/retry stats, in session order
        (the shards' pinned sessions, then the 2PC sessions)."""
        pinned = {s: stats for o in self.outcomes for s, stats in o.sessions.items()}
        merged = {session: pinned[session] for session in sorted(pinned)}
        for session, driver in self.txn_drivers.items():
            merged[session] = session_stats(driver)
        return merged

    @property
    def committed(self) -> int:
        return sum(o.applied_index for o in self.outcomes)

    def shard_pids(self, shard: int) -> list[int]:
        gsize = self.spec.group_size
        return list(range(shard * gsize, (shard + 1) * gsize))

    def digests(self) -> dict[int, str]:
        return {pid: replica.digest() for pid, replica in self.replicas.items()}


def run_sharded_rsm(
    spec: RsmRunSpec, ctx: RunContext | None = None
) -> ShardedRsmRunResult:
    """Run one sharded RSM spec: all shard groups in one kernel, checked.

    N :class:`~repro.rsm.group.ReplicaGroup` assemblies on one fabric, plus
    what only a multi-group run has: the key router, the 2PC sessions and
    the cross-shard serializability check.
    """
    ctx = ctx if ctx is not None else RunContext()
    groups_n = spec.topology.groups
    router = ShardRouter(groups_n, spec.keys, spec.topology.partitioner)
    fabric = Fabric.fresh(spec.cluster, spec.seed, spec.batch, ctx.tracer, ctx.detail)
    groups = [
        ReplicaGroup(spec, fabric, shard, router.keys_for(shard))
        for shard in range(groups_n)
    ]
    if ctx.obs is not None:
        ctx.obs.install(fabric.sim, network=fabric.network)

    nodes = {pid: node for group in groups for pid, node in group.nodes.items()}
    servings = {group.shard: group.serving for group in groups}
    txn_drivers: dict[int, TxnDriver] = {}
    if spec.txn_clients:
        txn_think = spec.txn_clients / spec.txn_rate
        for t in range(spec.txn_clients):
            session = spec.clients + t  # txn sessions own a disjoint id space
            txn_drivers[session] = TxnDriver(
                session=session,
                router=router,
                nodes=nodes,
                servings=servings,
                homes={
                    s: serving.pids()[t % len(serving.pids())]
                    for s, serving in servings.items()
                },
                duration=spec.duration,
                think_time=txn_think,
                txn_keys=spec.txn_keys,
                rng=random.Random(derive_seed(spec.seed, "rsm-txn", session)),
                start_at=txn_think * (t + 1) / spec.txn_clients,
                failover_delay=spec.failover_delay,
                tracer=ctx.tracer,
            )
    drivers = launch(groups, nemesis=spec.nemesis, extra_drivers=txn_drivers)
    fabric.sim.run(until=spec.horizon, max_events=spec.max_events)

    result = ShardedRsmRunResult(
        spec=spec,
        router=router,
        outcomes=[group.check() for group in groups],
        duration=fabric.sim.now,
        network_stats=fabric.network.stats.snapshot(),
        sim=fabric.sim,
        replicas={p: r for group in groups for p, r in group.replicas.items()},
        first_lives={p: r for group in groups for p, r in group.first_lives.items()},
        learners={p: r for group in groups for p, r in group.learners.items()},
        drivers=drivers,
        txn_drivers=txn_drivers,
        nodes=nodes,
    )
    try:
        for outcome in result.outcomes:
            if outcome.failure is not None:
                raise outcome.failure
        if spec.check:
            check_cross_shard_serializable(result.commit_orders)
            unfinished = {
                session: [t.txid for t in driver.txns if t.end_at is None]
                for session, driver in txn_drivers.items()
                if any(t.end_at is None for t in driver.txns)
            }
            if unfinished:
                raise TerminationFailure(
                    f"transactions never completed within the horizon: {unfinished}"
                )
            check_acknowledged(result.sessions)
    except ReproError as err:
        raise ctx.attach_failure(err)
    return result


def sharded_service_metrics(result: ShardedRsmRunResult) -> dict:
    """JSON-safe metrics section for a sharded run (``RunReport.rsm``).

    Mirrors the single-group section's aggregate fields (so plotting and the
    CLI read both shapes), then adds ``topology``, per-shard breakdowns and
    the 2PC transaction counters.  Everything per-shard comes from
    ``result.outcomes``, so serial and parallel runs share this one path.
    """
    spec = result.spec
    outcomes = result.outcomes
    offered, latencies = window_commit_latencies(result)
    window = spec.duration - spec.warmup

    per_shard = {
        str(o.shard): {
            "authority": o.authority,
            "committed": o.applied_index,
            "txns_committed": len(o.commit_order),
            "digest": o.digest,
            "crashed": o.crashed,
        }
        for o in outcomes
    }

    txns = [t for d in result.txn_drivers.values() for t in d.txns]
    txn_section = {
        "sessions": spec.txn_clients,
        "started": len(txns),
        "committed": sum(1 for t in txns if t.decision == "commit"),
        "aborted": sum(1 for t in txns if t.decision == "abort"),
        "conflicts": sum(
            1 for t in txns if any(v == "conflict" for v in t.votes.values())
        ),
    }

    recovery = {
        str(pid): {
            "installed_index": learner["installed_index"],
            "replayed": learner["replayed"],
            "snapshot_installs": learner["snapshot_installs"],
            "digest_match": learner["digest"] == o.digest,
        }
        for o in outcomes
        for pid, learner in o.learner_stats.items()
    }

    section = {
        "committed": result.committed,
        "offered_window": offered,
        "committed_window": len(latencies),
        "ops_per_s": (len(latencies) / window) if window > 0 else 0.0,
        "latency_ms": latency_summary_ms(latencies),
        "topology": spec.topology.to_dict(),
        "shards": per_shard,
        "txns": txn_section,
        "dedup": {
            "suppressed": sum(o.dedup_suppressed for o in outcomes),
            "retries": sum(s["retries"] for s in result.sessions.values()),
        },
        "snapshots": {
            "taken": sum(o.snapshots_taken for o in outcomes),
            "bytes": sum(o.snapshot_bytes for o in outcomes),
        },
        "sessions": spec.clients,
        "crashed": result.crashed,
        "recovery": recovery,
        "linearizable": result.linearizable,
    }
    # A parallel run adds its deterministic summary (partitions, requested
    # workers, per-partition event balance).
    if result.parallel:
        section["parallel"] = result.parallel
    return section

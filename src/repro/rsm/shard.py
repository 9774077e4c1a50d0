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

:func:`repro.rsm.runner.run_rsm` runs the groups and extends the per-group
checks (total order, exactly once, session order, log agreement,
linearizability by replay, digest and learner convergence) with
cross-shard serializability — the commit order of transactions on each
shard defines conflict edges (shared keys), and the union over shards must
stay acyclic (:func:`repro.harness.checkers.check_cross_shard_serializable`)
— and with :func:`check_txns_finished`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any
from zlib import crc32

from repro.engine.spec import PARTITIONERS, RsmRunSpec
from repro.errors import ConfigurationError, TerminationFailure
from repro.rsm.client import ServingSet, _PendingRequest
from repro.rsm.group import ReplicaGroup
from repro.rsm.machine import TxnCommand
from repro.rsm.replica import SUBMIT_TIMER
from repro.rsm.session import Request
from repro.sim.kernel import derive_seed
from repro.sim.node import Node
from repro.sim.trace import KINDS

__all__ = [
    "ShardRouter",
    "TxnRecord",
    "TxnDriver",
    "check_txns_finished",
    "shard_pid_groups",
    "txn_sessions",
]


def shard_pid_groups(spec: RsmRunSpec) -> tuple[tuple[int, ...], ...]:
    """Global pid membership of each shard group, in shard order.

    This is the assignment shared by the serial runner and the one-kernel-
    per-shard parallel path (:mod:`repro.rsm.parallel`): pids are numbered
    ``shard * group_size .. (shard + 1) * group_size - 1``, so a parallel
    run's traces carry exactly the serial runner's pids.  An unsharded
    spec is one group of pids ``0 .. n - 1``.
    """
    gsize = spec.group_size if spec.is_sharded else spec.n
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


def txn_sessions(
    spec: RsmRunSpec,
    router: ShardRouter,
    groups: list[ReplicaGroup],
    tracer=None,
) -> dict[int, TxnDriver]:
    """The run's 2PC sessions, numbered after the plain ones.

    Session ``t`` homes on each shard's ``t``-th serving replica (mod the
    shard's size) and starts ``t + 1`` evenly spaced steps into its first
    think time.
    """
    if not spec.txn_clients:
        return {}
    nodes = {pid: node for group in groups for pid, node in group.nodes.items()}
    servings = {group.shard: group.serving for group in groups}
    think = spec.txn_clients / spec.txn_rate
    drivers: dict[int, TxnDriver] = {}
    for t in range(spec.txn_clients):
        session = spec.clients + t  # txn sessions own a disjoint id space
        drivers[session] = TxnDriver(
            session=session,
            router=router,
            nodes=nodes,
            servings=servings,
            homes={
                s: serving.pids()[t % len(serving.pids())]
                for s, serving in servings.items()
            },
            duration=spec.duration,
            think_time=think,
            txn_keys=spec.txn_keys,
            rng=random.Random(derive_seed(spec.seed, "rsm-txn", session)),
            start_at=think * (t + 1) / spec.txn_clients,
            failover_delay=spec.failover_delay,
            tracer=tracer,
        )
    return drivers


def check_txns_finished(drivers: dict[int, TxnDriver]) -> None:
    """Every transaction a 2PC session began reached its end by the horizon."""
    unfinished = {
        session: [t.txid for t in driver.txns if t.end_at is None]
        for session, driver in drivers.items()
        if any(t.end_at is None for t in driver.txns)
    }
    if unfinished:
        raise TerminationFailure(
            f"transactions never completed within the horizon: {unfinished}"
        )

"""Execute one RSM service run: groups, clients, crashes, recovery, checks.

:func:`run_rsm` is to :class:`~repro.engine.spec.RsmRunSpec` what
``run_abcast`` is to ``AbcastRunSpec``.  Every serial run is the same thing:
one :class:`~repro.rsm.group.ReplicaGroup` per shard (one when the spec is
unsharded) of :class:`~repro.rsm.replica.RsmReplica` nodes over the named
abcast protocol, all on one fresh fabric, plus the 2PC sessions when the
spec asks for them.  It drives the client sessions, injects the scripted
crashes (each crashed replica rejoins as a learner after ``recover_after``),
runs to the horizon and validates the service-level guarantees:

* per group: abcast total order over the survivors' delivery sequences,
  exactly-once + session order + index-aligned log agreement over every
  replica's applied log (learner included), linearizability of the
  committed history by deterministic replay, and recovery convergence —
  each rejoined learner's state digest must equal the survivors' at drain;
* across groups: serializability of the committed cross-shard
  transactions, and every transaction finished;
* client termination — every submitted request is eventually acknowledged.

:func:`service_metrics` distils a finished run into the JSON-safe metrics
section carried by ``RunReport.rsm`` (committed-ops/s, commit-latency
percentiles, snapshot accounting, dedup/retry counters, recovery summary,
then the single-group or the sharded fields).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.engine.context import RunContext
from repro.engine.spec import RsmRunSpec
from repro.errors import ReproError
from repro.harness.checkers import check_cross_shard_serializable
from repro.harness.cluster import Fabric, check_pids
from repro.rsm.group import (
    ReplicaGroup,
    ShardOutcome,
    check_acknowledged,
    launch,
    session_stats,
)
from repro.rsm.replica import ApplyRecord, RsmReplica
from repro.rsm.shard import (
    ShardRouter,
    TxnDriver,
    check_txns_finished,
    shard_pid_groups,
    txn_sessions,
)
from repro.sim.node import Node
from repro.workload.metrics import _percentile, summarize

__all__ = ["RsmRunResult", "run_rsm", "service_metrics"]


@dataclass
class RsmRunResult:
    """Everything a finished RSM run exposes to metrics and tests.

    ``outcomes`` — one checked :class:`~repro.rsm.group.ShardOutcome` per
    group, in shard order (one for an unsharded spec) — is the plain data
    the metrics read, identically whether the groups shared this process's
    kernel or each ran on its own in a worker.  The live objects
    (``replicas`` … ``nodes``) exist only for a one-kernel run; a parallel
    run leaves them empty, carries summed kernel counters as ``sim`` and
    adds its ``parallel`` report section.
    """

    spec: RsmRunSpec
    outcomes: list[ShardOutcome]
    duration: float
    network_stats: dict
    sim: Any = field(repr=False)
    replicas: dict[int, RsmReplica] = field(default_factory=dict)  # final incarnations
    first_lives: dict[int, RsmReplica] = field(default_factory=dict)  # pre-crash
    learners: dict[int, RsmReplica] = field(default_factory=dict)  # rejoined
    drivers: dict[int, Any] = field(default_factory=dict)  # SessionDriver | TxnDriver
    txn_drivers: dict[int, TxnDriver] = field(default_factory=dict)
    nodes: dict[int, Node] = field(repr=False, default_factory=dict)
    parallel: dict | None = None
    parallel_stats: dict | None = field(repr=False, default=None)

    @property
    def shards(self) -> int:
        return len(self.outcomes)

    @property
    def authority(self) -> int:
        """Pid of the first group's reference survivor (an unsharded run has
        only the one)."""
        return self.outcomes[0].authority

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
        (the groups' pinned sessions, then the 2PC sessions)."""
        pinned = {s: stats for o in self.outcomes for s, stats in o.sessions.items()}
        merged = {session: pinned[session] for session in sorted(pinned)}
        for session, driver in self.txn_drivers.items():
            merged[session] = session_stats(driver)
        return merged

    @property
    def committed(self) -> int:
        return sum(o.applied_index for o in self.outcomes)

    def shard_pids(self, shard: int) -> list[int]:
        return list(shard_pid_groups(self.spec)[shard])

    def digests(self) -> dict[int, str]:
        return {pid: replica.digest() for pid, replica in self.replicas.items()}


def run_rsm(
    spec: RsmRunSpec, ctx: RunContext | None = None, workers_cap: int | None = None
) -> RsmRunResult:
    """Run one RSM service spec on a fresh simulated cluster.

    Observation rides in ``ctx`` (a :class:`~repro.engine.RunContext`).
    The run is one :class:`~repro.rsm.group.ReplicaGroup` per shard on one
    fresh fabric — one group when the spec is unsharded; a sharded spec
    adds the key router, the 2PC sessions and the cross-shard checks —
    then :func:`~repro.rsm.group.launch`, run to the horizon, check.
    With ``spec.parallel`` set, sharded specs run one kernel per shard via
    :func:`repro.rsm.parallel.run_parallel_sharded_rsm`; a parallel spec
    with a single group runs on the ordinary serial kernel unchanged.
    ``workers_cap`` limits the parallel path's worker processes (the sweep
    scheduler's CPU-budget share) without touching the spec or any
    deterministic output.
    """
    ctx = ctx if ctx is not None else RunContext()
    sharded = spec.is_sharded
    if sharded and spec.parallel:
        from repro.rsm.parallel import run_parallel_sharded_rsm

        return run_parallel_sharded_rsm(spec, ctx=ctx, workers_cap=workers_cap)
    check_pids(
        "crash_at",
        (pid for pid, _ in spec.crash_at),
        [pid for pids in shard_pid_groups(spec) for pid in pids],
    )

    fabric = Fabric.fresh(spec.cluster, spec.seed, spec.batch, ctx.tracer, ctx.detail)
    txn_drivers: dict[int, TxnDriver] = {}
    if sharded:
        topology = spec.topology
        router = ShardRouter(topology.groups, spec.keys, topology.partitioner)
        groups = [
            ReplicaGroup(spec, fabric, shard, router.keys_for(shard))
            for shard in range(topology.groups)
        ]
        txn_drivers = txn_sessions(spec, router, groups, ctx.tracer)
    else:
        groups = [ReplicaGroup(spec, fabric)]
    if ctx.obs is not None:
        ctx.obs.install(
            fabric.sim,
            network=fabric.network,
            oracles=[group.oracle for group in groups],
        )
    drivers = launch(groups, nemesis=spec.nemesis, extra_drivers=txn_drivers)
    fabric.sim.run(until=spec.horizon, max_events=spec.max_events)

    result = RsmRunResult(
        spec=spec,
        outcomes=[group.check() for group in groups],
        duration=fabric.sim.now,
        network_stats=fabric.network.stats.snapshot(),
        sim=fabric.sim,
        replicas={p: r for group in groups for p, r in group.replicas.items()},
        first_lives={p: r for group in groups for p, r in group.first_lives.items()},
        learners={p: r for group in groups for p, r in group.learners.items()},
        drivers=drivers,
        txn_drivers=txn_drivers,
        nodes={p: node for group in groups for p, node in group.nodes.items()},
    )
    try:
        for outcome in result.outcomes:
            if outcome.failure is not None:
                raise outcome.failure
        if spec.check:
            check_cross_shard_serializable(result.commit_orders)
            check_txns_finished(txn_drivers)
            check_acknowledged(result.sessions)
    except ReproError as err:
        raise ctx.attach_failure(err)
    return result


def window_commit_latencies(result: RsmRunResult) -> tuple[int, list[float]]:
    """(offered, latencies) over requests submitted in ``[warmup, duration]``.

    ``offered`` counts first submissions inside the window; a latency sample
    is the client-observed delay from first submission to the home replica's
    commit acknowledgement (retries therefore *lengthen* the sample rather
    than resetting it).
    """
    spec = result.spec
    offered = 0
    latencies: list[float] = []
    for stats in result.sessions.values():
        for submit_at, ack_at in stats["latencies"]:
            if spec.warmup <= submit_at <= spec.duration:
                offered += 1
                latencies.append(ack_at - submit_at)
        for submit_at in stats["pending"].values():
            if spec.warmup <= submit_at <= spec.duration:
                offered += 1
    return offered, latencies


def latency_summary_ms(latencies: list[float]) -> dict | None:
    """Mean and p50/p95/p99 of commit latencies in milliseconds (``None``
    for an empty window) — the section's ``latency_ms`` field."""
    if not latencies:
        return None
    ordered = sorted(latencies)
    return {
        "mean": summarize(ordered).scaled(1e3).mean,
        "p50": _percentile(ordered, 0.50) * 1e3,
        "p95": _percentile(ordered, 0.95) * 1e3,
        "p99": _percentile(ordered, 0.99) * 1e3,
    }


def _apply_lags(records: list[ApplyRecord]) -> list[float]:
    """Spread of apply times of each index every record applied, in the
    first record's apply order.  The columns are lined up row by row; the
    indexes a snapshot install skipped are simply absent."""
    if not records:
        return []
    first, *others = records
    lags = []
    for row, index in enumerate(first.index):
        times = [first.at[row]]
        for other in others:
            there = other.position(index)
            if there is None:
                break
            times.append(other.at[there])
        else:
            lags.append(max(times) - min(times))
    return lags


def service_metrics(result: RsmRunResult) -> dict:
    """JSON-safe service-level metrics section (``RunReport.rsm``).

    The aggregate fields come from ``result.outcomes``, so serial and
    parallel runs share them.  An unsharded run adds ``batches``,
    ``apply_lag_ms``, ``snapshots.last_index`` and ``digest``, read from its
    live replicas; a sharded run adds ``topology``, the per-shard
    breakdown, the 2PC transaction counters and (parallel only) its
    ``parallel`` summary.
    """
    spec = result.spec
    outcomes = result.outcomes
    offered, latencies = window_commit_latencies(result)
    window = spec.duration - spec.warmup
    section = {
        "committed": result.committed,
        "offered_window": offered,
        "committed_window": len(latencies),
        "ops_per_s": (len(latencies) / window) if window > 0 else 0.0,
        "latency_ms": latency_summary_ms(latencies),
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
        "recovery": {
            str(pid): {
                "installed_index": learner["installed_index"],
                "replayed": learner["replayed"],
                "snapshot_installs": learner["snapshot_installs"],
                "digest_match": learner["digest"] == o.digest,
            }
            for o in outcomes
            for pid, learner in o.learner_stats.items()
        },
        "linearizable": result.linearizable,
    }
    if spec.is_sharded:
        txns = [t for d in result.txn_drivers.values() for t in d.txns]
        section["topology"] = spec.topology.to_dict()
        section["shards"] = {
            str(o.shard): {
                "authority": o.authority,
                "committed": o.applied_index,
                "txns_committed": len(o.commit_order),
                "digest": o.digest,
                "crashed": o.crashed,
            }
            for o in outcomes
        }
        section["txns"] = {
            "sessions": spec.txn_clients,
            "started": len(txns),
            "committed": sum(1 for t in txns if t.decision == "commit"),
            "aborted": sum(1 for t in txns if t.decision == "abort"),
            "conflicts": sum(
                1 for t in txns if any(v == "conflict" for v in t.votes.values())
            ),
        }
        # A parallel run adds its deterministic summary (partitions,
        # requested workers, per-partition event balance).
        if result.parallel:
            section["parallel"] = result.parallel
        return section

    auth = result.replicas[result.authority]
    batch_sizes = auth.batch_sizes
    section["batches"] = {
        "count": len(batch_sizes),
        "mean_size": (sum(batch_sizes) / len(batch_sizes)) if batch_sizes else 0.0,
        "max_size": max(batch_sizes, default=0),
    }
    # Apply lag: spread of apply times for the same index across survivors.
    lags = _apply_lags(
        [r.applies for pid, r in result.replicas.items() if pid not in result.crashed]
    )
    section["apply_lag_ms"] = (
        {"mean": sum(lags) / len(lags) * 1e3, "max": max(lags) * 1e3}
        if lags
        else None
    )
    section["snapshots"]["last_index"] = auth.last_snapshot_index
    section["digest"] = auth.digest()
    return section

"""Execute one RSM service run: cluster, clients, crashes, recovery, checks.

:func:`run_rsm` is to :class:`~repro.engine.spec.RsmRunSpec` what
``run_abcast`` is to ``AbcastRunSpec``: it builds a fresh simulated cluster
of :class:`~repro.rsm.replica.RsmReplica` nodes over the named abcast
protocol, drives the client sessions, injects the scripted crashes (each
crashed replica rejoins as a learner after ``recover_after``), runs to the
horizon and validates the service-level guarantees:

* abcast total order over the survivors' delivery sequences;
* exactly-once + session order + index-aligned log agreement over every
  replica's applied log (learner included);
* linearizability of the committed history, by deterministic replay;
* recovery convergence — each rejoined learner's state digest must equal
  the survivors' at drain;
* client termination — every submitted request is eventually acknowledged.

:func:`service_metrics` distils a finished run into the JSON-safe metrics
section carried by ``RunReport.rsm`` (committed-ops/s, commit-latency
percentiles, batch-size distribution, apply lag, snapshot accounting,
dedup/retry counters, recovery summary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.engine.context import RunContext
from repro.engine.spec import RsmRunSpec
from repro.errors import ConfigurationError, ReproError
from repro.rsm.group import (
    Fabric,
    ReplicaGroup,
    ShardOutcome,
    check_acknowledged,
    launch,
)
from repro.rsm.replica import RsmReplica
from repro.sim.kernel import Simulator
from repro.sim.node import Node
from repro.workload.metrics import _percentile, summarize

__all__ = ["RsmRunResult", "run_rsm", "service_metrics"]


@dataclass
class RsmRunResult:
    """Everything a finished RSM run exposes to metrics and tests."""

    spec: RsmRunSpec
    replicas: dict[int, RsmReplica]          # final incarnation per pid
    first_lives: dict[int, RsmReplica]       # pre-crash incarnations
    learners: dict[int, RsmReplica]          # rejoined replicas (subset)
    drivers: dict[int, Any]                  # session -> SessionDriver
    outcome: ShardOutcome                    # the group's checked plain data
    duration: float
    network_stats: dict
    sim: Simulator = field(repr=False)
    nodes: dict[int, Node] = field(repr=False, default_factory=dict)

    @property
    def authority(self) -> int:
        """Pid of the reference survivor."""
        return self.outcome.authority

    @property
    def crashed(self) -> list[int]:
        return self.outcome.crashed

    @property
    def linearizable(self) -> bool:
        return self.outcome.linearizable

    @property
    def sessions(self) -> dict[int, dict]:
        """session -> plain latency/pending/retry stats (see ``session_stats``)."""
        return self.outcome.sessions

    @property
    def committed(self) -> int:
        return self.outcome.applied_index

    def digests(self) -> dict[int, str]:
        return {pid: replica.digest() for pid, replica in self.replicas.items()}


def run_rsm(
    spec: RsmRunSpec, ctx: RunContext | None = None, workers_cap: int | None = None
) -> RsmRunResult:
    """Run one RSM service spec on a fresh simulated cluster.

    Observation rides in ``ctx`` (a :class:`~repro.engine.RunContext`).
    Specs whose topology declares multiple groups — or whose workload
    includes cross-shard transactions — dispatch to
    :func:`repro.rsm.shard.run_sharded_rsm` and return its
    ``ShardedRsmRunResult`` instead.  With ``spec.parallel`` set, multi-group
    specs run one kernel per shard via
    :func:`repro.rsm.parallel.run_parallel_sharded_rsm`; a parallel spec with
    a single group falls back to the ordinary serial kernel unchanged.
    ``workers_cap`` limits the parallel path's worker processes (the sweep
    scheduler's CPU-budget share) without touching the spec or any
    deterministic output.

    The single-group run is one :class:`~repro.rsm.group.ReplicaGroup` on a
    fresh fabric: build, :func:`~repro.rsm.group.launch`, run to the
    horizon, check.
    """
    ctx = ctx if ctx is not None else RunContext()
    if spec.is_sharded:
        if spec.parallel:
            from repro.rsm.parallel import run_parallel_sharded_rsm

            return run_parallel_sharded_rsm(spec, ctx=ctx, workers_cap=workers_cap)
        from repro.rsm.shard import run_sharded_rsm

        return run_sharded_rsm(spec, ctx=ctx)
    for pid, _ in spec.crash_at:
        if pid not in range(spec.n):
            raise ConfigurationError(f"crash_at names unknown replica {pid}")

    fabric = Fabric.fresh(spec, tracer=ctx.tracer, detail=ctx.detail)
    group = ReplicaGroup(spec, fabric)
    if ctx.obs is not None:
        ctx.obs.install(fabric.sim, network=fabric.network, oracle=group.oracle)
    launch([group], nemesis=spec.nemesis)
    fabric.sim.run(until=spec.horizon, max_events=spec.max_events)

    outcome = group.check()
    try:
        if outcome.failure is not None:
            raise outcome.failure
        if spec.check:
            check_acknowledged(outcome.sessions)
    except ReproError as err:
        raise ctx.attach_failure(err)

    return RsmRunResult(
        spec=spec,
        replicas=group.replicas,
        first_lives=group.first_lives,
        learners=group.learners,
        drivers=group.drivers,
        outcome=outcome,
        duration=fabric.sim.now,
        network_stats=fabric.network.stats.snapshot(),
        sim=fabric.sim,
        nodes=group.nodes,
    )


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
    for an empty window) — the ``latency_ms`` field of both rsm sections."""
    if not latencies:
        return None
    ordered = sorted(latencies)
    return {
        "mean": summarize(ordered).scaled(1e3).mean,
        "p50": _percentile(ordered, 0.50) * 1e3,
        "p95": _percentile(ordered, 0.95) * 1e3,
        "p99": _percentile(ordered, 0.99) * 1e3,
    }


def service_metrics(result) -> dict:
    """JSON-safe service-level metrics section (``RunReport.rsm``).

    Dispatches on the result shape: sharded runs carry per-shard authorities
    and get the extended section from :mod:`repro.rsm.shard`."""
    if hasattr(result, "authorities"):
        from repro.rsm.shard import sharded_service_metrics

        return sharded_service_metrics(result)
    spec = result.spec
    auth = result.replicas[result.authority]
    offered, latencies = window_commit_latencies(result)
    window = spec.duration - spec.warmup

    batch_sizes = auth.batch_sizes
    batches = {
        "count": len(batch_sizes),
        "mean_size": (sum(batch_sizes) / len(batch_sizes)) if batch_sizes else 0.0,
        "max_size": max(batch_sizes, default=0),
    }

    # Apply lag: spread of apply times for the same index across survivors.
    survivors = [pid for pid in result.replicas if pid not in result.crashed]
    times_by_index: dict[int, list[float]] = {}
    for pid in survivors:
        for entry in result.replicas[pid].audit:
            times_by_index.setdefault(entry.index, []).append(entry.at)
    lags = [
        max(times) - min(times)
        for times in times_by_index.values()
        if len(times) == len(survivors)
    ]
    apply_lag_ms = (
        {"mean": sum(lags) / len(lags) * 1e3, "max": max(lags) * 1e3}
        if lags
        else None
    )

    snapshot_lives = list(result.first_lives.values()) + list(
        result.learners.values()
    )
    recovery = {
        str(pid): {
            "installed_index": learner.recovered_from_index,
            "replayed": learner.replayed,
            "snapshot_installs": learner.snapshot_installs,
            "digest_match": learner.digest() == auth.digest(),
        }
        for pid, learner in result.learners.items()
    }

    return {
        "committed": auth.applied_index,
        "offered_window": offered,
        "committed_window": len(latencies),
        "ops_per_s": (len(latencies) / window) if window > 0 else 0.0,
        "latency_ms": latency_summary_ms(latencies),
        "batches": batches,
        "apply_lag_ms": apply_lag_ms,
        "snapshots": {
            "taken": sum(r.snapshots_taken for r in snapshot_lives),
            "bytes": sum(r.snapshot_bytes for r in snapshot_lives),
            "last_index": auth.last_snapshot_index,
        },
        "dedup": {
            "suppressed": auth.dedup.suppressed,
            "retries": sum(d.retries for d in result.drivers.values()),
        },
        "sessions": spec.clients,
        "crashed": list(result.crashed),
        "recovery": recovery,
        "digest": auth.digest(),
        "linearizable": result.linearizable,
    }

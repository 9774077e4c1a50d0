"""Parallel execution of sharded RSM runs: one kernel per shard, mapped.

A sharded spec with no cross-shard transaction sessions is *perfectly*
partitionable: every consensus group has its own replicas, failure
detector, serving set and pinned client sessions, and the key router keeps
every command inside its shard — no message ever crosses a shard boundary.
So there is nothing to synchronise.  Each shard is one task of an ordered
map (:func:`repro.sim.parallel.run_partitions`): build the shard's
:class:`~repro.rsm.group.ReplicaGroup` on its own fabric — a
:class:`~repro.sim.kernel.Simulator` seeded stably from the shard id
(``derive_seed(spec.seed, "parallel-shard", shard)``), its own network and
storage, its own shard-filtered nemesis schedule — run it to
``spec.horizon``, check it, and return the
:class:`~repro.rsm.group.ShardOutcome`.  The parent merges the outcomes into
the same :class:`~repro.rsm.runner.RsmRunResult` the serial runner returns;
metrics and reports read nothing else.

Cross-shard 2PC sessions *would* exchange messages between shards, which is
why ``parallel=True`` with ``txn_clients > 0`` is rejected at spec
validation rather than synchronised.

Determinism: per-shard seeds and per-shard nemesis filters depend only on
the spec — never on the worker count — so ``workers=1`` (in-process) and
``workers=N`` produce byte-identical merged traces and reports.  Note the
per-shard RNG streams differ *by construction* from the single-kernel serial
path (one shared ``"network"`` stream there, one per shard here), so
``parallel=True`` is a different — equally valid, self-consistent — sample
of the same workload distribution; byte-identity holds across worker
counts, not across the parallel/serial switch.
"""

from __future__ import annotations

from typing import Any

from repro.engine.context import RunContext
from repro.engine.spec import PARALLEL_OBS_ERROR, RsmRunSpec
from repro.errors import ConfigurationError, ReproError
from repro.harness.cluster import Fabric
from repro.nemesis.spec import (
    CpuSkewOp,
    CrashOp,
    DelayOp,
    DropOp,
    DupOp,
    FdFlapOp,
    NemesisSpec,
    PartitionOp,
)
from repro.rsm.group import (
    ReplicaGroup,
    ShardOutcome,
    check_acknowledged,
    launch,
)
from repro.rsm.runner import RsmRunResult
from repro.rsm.shard import ShardRouter, shard_pid_groups
from repro.sim.kernel import derive_seed
from repro.sim.parallel import PartitionPlan, run_partitions
from repro.sim.trace import CountingTracer, Tracer

__all__ = [
    "filter_nemesis_for_shard",
    "run_parallel_sharded_rsm",
    "shard_partition_plan",
]

#: Kernel counters each shard reports; the merged result sums them.
_KERNEL_COUNTERS = (
    "events_processed",
    "events_scheduled",
    "compactions",
    "drain_batches",
    "batched_events",
)


def shard_partition_plan(spec: RsmRunSpec) -> PartitionPlan:
    """One partition per shard group, pids numbered as in the serial runner.

    With sessions pinned to shards and no transaction drivers, no message
    ever crosses a partition boundary; specs that would need one are
    rejected here (and at spec validation).
    """
    if not spec.is_sharded:
        raise ConfigurationError("partition plan needs a sharded topology")
    if spec.txn_clients:
        raise ConfigurationError(
            "parallel execution requires txn_clients == 0: 2PC sessions span "
            "shards and would cross partition boundaries"
        )
    return PartitionPlan(groups=shard_pid_groups(spec))


def filter_nemesis_for_shard(
    nemesis: NemesisSpec, pids: frozenset[int]
) -> NemesisSpec:
    """The sub-schedule of ``nemesis`` observable inside one shard.

    Point faults (crash, fd-flap, cpu-skew) survive iff their pid is local;
    link faults (drop/delay/dup) survive iff every *named* endpoint is local
    (wildcards match everything, so they survive everywhere — they can only
    ever see intra-shard traffic here, exactly as in the single-kernel run).
    A partition op keeps the intersection of its groups with the shard; when
    nothing intersects, the single-kernel semantics ("pids in no group are
    isolated") means this whole shard goes dark, which one singleton group
    reproduces — its member may talk only to itself, everyone else to no one.
    """
    kept: list[Any] = []
    for op in nemesis.ops:
        kind = type(op)
        if kind in (CrashOp, FdFlapOp, CpuSkewOp):
            if op.pid in pids:
                kept.append(op)
        elif kind in (DropOp, DelayOp, DupOp):
            named = [p for p in (op.src, op.dst) if p is not None]
            if all(p in pids for p in named):
                kept.append(op)
        elif kind is PartitionOp:
            groups = tuple(
                local
                for group in op.groups
                if (local := tuple(p for p in group if p in pids))
            )
            if not groups:
                groups = ((min(pids),),)
            kept.append(PartitionOp(at=op.at, duration=op.duration, groups=groups))
        else:  # pragma: no cover - new op types must choose a filtering rule
            raise ConfigurationError(
                f"no shard-filtering rule for nemesis op {kind.__name__}"
            )
    return NemesisSpec(tuple(kept))


def _run_shard(shard: int, payload: tuple) -> ShardOutcome:
    """The map's task: one shard on its own fabric, built, run and checked.

    Everything the shard draws from hangs off its own simulator, seeded from
    the shard id, so the outcome is a pure function of (spec, shard):
    identical wherever the task runs.
    """
    spec, trace, detail = payload
    if trace == "counts":
        tracer = CountingTracer()
    else:
        tracer = Tracer() if (trace or detail) else None
    fabric = Fabric.fresh(
        spec.cluster,
        derive_seed(spec.seed, "parallel-shard", shard),
        spec.batch,
        tracer,
        detail,
    )
    if detail:
        fabric.network.obs_tracer = tracer
    router = ShardRouter(spec.topology.groups, spec.keys, spec.topology.partitioner)
    group = ReplicaGroup(spec, fabric, shard, router.keys_for(shard))
    nemesis = spec.nemesis and filter_nemesis_for_shard(
        spec.nemesis, frozenset(group.pids)
    )
    launch([group], nemesis=nemesis)
    sim = fabric.sim
    sim.run(until=spec.horizon, max_events=spec.max_events)

    outcome = group.check()
    if isinstance(tracer, CountingTracer):
        outcome.trace_tally = tracer.tally()
    elif tracer is not None:
        outcome.trace = tracer.records.columns()
    outcome.network_stats = fabric.network.stats.snapshot()
    outcome.kernel = {name: getattr(sim, name) for name in _KERNEL_COUNTERS}
    outcome.kernel.update(pending=sim.pending(), now=sim.now, exhausted=sim.exhausted)
    return outcome


class _KernelTotals:
    """Summed kernel counters across shard kernels, shaped like a Simulator.

    :func:`repro.perf.collect` reads these attributes off ``result.sim``;
    the totals make its kernel component meaningful for a partitioned run
    (events/s then measures the whole fleet against the run's wall clock).
    """

    def __init__(self, kernels: list[dict]) -> None:
        for name in _KERNEL_COUNTERS:
            setattr(self, name, sum(k[name] for k in kernels))
        self.now = max((k["now"] for k in kernels), default=0.0)
        self.exhausted = any(k["exhausted"] for k in kernels)
        self._pending = sum(k["pending"] for k in kernels)

    def pending(self) -> int:
        return self._pending


def _merge_values(a: Any, b: Any) -> Any:
    if isinstance(a, dict):
        merged = dict(a)
        for key, value in b.items():
            merged[key] = _merge_values(merged[key], value) if key in merged else value
        return merged
    if isinstance(a, list):
        return a + b
    if isinstance(a, bool) or isinstance(b, bool):
        return a or b
    return a + b


def merge_network_stats(snapshots: list[dict]) -> dict:
    """Fold per-shard ``NetworkStats.snapshot()`` dicts into one.

    Counters add, nested per-channel/per-kind dicts merge key-wise, list
    values (e.g. recorded partition windows) concatenate in shard order.
    """
    merged: dict = {}
    for snapshot in snapshots:
        merged = _merge_values(merged, snapshot) if merged else dict(snapshot)
    return merged


def run_parallel_sharded_rsm(
    spec: RsmRunSpec,
    ctx: RunContext | None = None,
    workers_cap: int | None = None,
) -> RsmRunResult:
    """Run one sharded spec with one kernel per shard group, then merge.

    ``workers_cap`` is an *execution* limit (the sweep scheduler's share of
    the CPU budget) — it caps how many worker processes run, never touches
    the spec, and cannot change any deterministic output.
    """
    ctx = ctx if ctx is not None else RunContext()
    if ctx.obs is not None and (
        ctx.obs.registry is not None or ctx.obs.recorder is not None
    ):
        # A caller-built runtime; a spec with these knobs never constructs.
        raise ConfigurationError(PARALLEL_OBS_ERROR)
    plan = shard_partition_plan(spec)
    workers = min(spec.workers or 1, plan.partitions)
    if workers_cap is not None:
        workers = min(workers, max(1, workers_cap))
    # A parent tracer that keeps no records gets per-kind tallies, not traces.
    tracer = ctx.tracer
    if tracer is None:
        trace = None
    else:
        trace = "counts" if isinstance(tracer, CountingTracer) else "records"
    payload = (spec, trace, ctx.detail)
    outcomes = run_partitions(
        _run_shard, [payload] * plan.partitions, plan, workers=workers
    )

    # Merge traces first — even a failing run keeps its evidence.  The
    # interleave key (time, shard, local order) is a deterministic refinement
    # of per-shard emission order, independent of where shards ran (the
    # outcomes come in shard order, so a log's position is its shard).  A
    # tally merges under the same key: a kind's first-seen position in its
    # shard orders it as the index of its first record would.
    if trace == "counts":
        firsts = sorted(
            (first, outcome.shard, position, kind, count)
            for outcome in outcomes
            for position, (kind, (first, count)) in enumerate(
                outcome.trace_tally.items()
            )
        )
        for first, _, _, kind, count in firsts:
            tracer.absorb(kind, first, count)
    elif trace == "records":
        tracer.merge(outcome.trace for outcome in outcomes)

    # The first failure in shard order; each shard answers for its own
    # sessions' acknowledgements (nothing spans shards here).
    try:
        for outcome in outcomes:
            if outcome.failure is not None:
                raise outcome.failure
            if spec.check:
                check_acknowledged(outcome.sessions)
    except ReproError as err:
        raise ctx.attach_failure(err)

    events = [o.kernel["events_processed"] for o in outcomes]
    return RsmRunResult(
        spec=spec,
        outcomes=outcomes,
        duration=max((o.kernel["now"] for o in outcomes), default=0.0),
        network_stats=merge_network_stats([o.network_stats for o in outcomes]),
        sim=_KernelTotals([o.kernel for o in outcomes]),
        parallel={
            "partitions": plan.partitions,
            "workers": spec.workers,
            "events_total": sum(events),
            "max_partition_events": max(events),
        },
        parallel_stats={
            "partitions": plan.partitions,
            "workers": workers,
            "events_by_partition": events,
        },
    )

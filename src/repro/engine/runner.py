"""Parallel sweep executor: run spec grids over worker processes, cached.

The simulator is deterministic and fully seed-keyed, so a grid of runs
(protocol × rate × seed) is embarrassingly parallel: :func:`run_sweep` fans
the cache misses out over the persistent :mod:`repro.engine.pool` worker
pool — cost-ordered, longest jobs first — and stitches results back in
spec order *as they complete*.  Each finished cell is written to the
:class:`ResultCache` immediately (write-behind), so an interrupted or
failed sweep resumes from its completed cells, and an optional ``progress``
callback observes every landing cell.  With a cache attached, re-running a
sweep only executes changed cells — the Figure-2/3 grids and the benchmark
suite become incremental.

:func:`run_abcast_spec` / :func:`run_consensus_spec` are the harness
runners :func:`repro.harness.run_abcast` / ``run_consensus`` under their
engine names: both take a spec in place of a factory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from repro.engine.cache import ResultCache
from repro.engine.context import RunContext
from repro.engine.report import RunReport
from repro.engine.spec import AbcastRunSpec, ClusterSpec, RsmRunSpec, TopologySpec
from repro.errors import ConfigurationError, EventBudgetExhausted, ReproError
from repro.harness.abcast_runner import run_abcast as run_abcast_spec
from repro.harness.consensus_runner import run_consensus as run_consensus_spec
from repro.harness.registry import ABCAST, get_protocol
from repro.sim.trace import CountingTracer
from repro.workload.metrics import summarize

__all__ = [
    "SweepError",
    "SweepResult",
    "run_sweep",
    "execute_run",
    "run_abcast_spec",
    "run_consensus_spec",
    "run_rsm_spec",
    "sweep_grid",
    "rsm_sweep_grid",
    "window_latencies",
]


def run_rsm_spec(
    spec: RsmRunSpec,
    ctx: RunContext | None = None,
    workers_cap: int | None = None,
):
    """Execute one RSM service spec; returns an ``RsmRunResult`` (or a
    ``ShardedRsmRunResult`` when the spec's topology asks for shards or the
    workload includes cross-shard transactions).  ``workers_cap`` bounds the
    parallel path's worker processes — an execution knob, never part of the
    spec or its cache key."""
    from repro.rsm.runner import run_rsm

    return run_rsm(spec, ctx=ctx, workers_cap=workers_cap)


def _own_context(spec) -> RunContext:
    """The context of a run whose caller supplied none.

    With every obs knob at its default, nothing outside :func:`execute_run`
    can read the run's records and the report reads only their counts, so
    the tracer only counts (and the obs import is skipped).  Otherwise the
    spec's :class:`~repro.obs.ObsRuntime` brings a recording tracer.
    """
    if not (
        getattr(spec, "obs", False)
        or getattr(spec, "obs_metrics_interval", 0.0)
        or getattr(spec, "obs_flight_recorder", 0)
    ):
        return RunContext(tracer=CountingTracer())
    from repro.obs import ObsRuntime

    return RunContext(obs=ObsRuntime.from_spec(spec))


def window_latencies(result, warmup: float, duration: float) -> tuple[int, list[float]]:
    """(offered, latencies) over messages a-broadcast in ``[warmup, duration]``."""
    offered = sum(
        warmup <= msg.sent_at <= duration for msg in result.broadcast.values()
    )
    return offered, result.latencies((warmup, duration))


def execute_run(
    spec: AbcastRunSpec | RsmRunSpec,
    collect_perf: bool = False,
    ctx: RunContext | None = None,
    workers_cap: int | None = None,
) -> RunReport:
    """Run one spec to completion and distil it into a :class:`RunReport`.

    Top-level (picklable) so worker processes can execute it by reference.
    Dispatches on the spec kind, so abcast and RSM cells can share one sweep
    grid; an RSM report also carries the ``rsm`` service section.
    ``collect_perf`` additionally times the run against the wall clock and
    attaches a :mod:`repro.perf` section (``report.perf``); the default path
    never reads the clock, so normal sweeps are unaffected.

    ``ctx`` lets a caller supply the run's :class:`RunContext` and keep hold
    of the tracer afterwards — ``repro obs record`` uses this to fold the
    trace into a warehouse entry alongside the report.  Without one, a run
    with no obs knob set traces into a :class:`CountingTracer`: the report
    is byte-identical to a recording run's.  A ctx without a tracer is
    rejected for RSM specs (the report's trace counts come from it; commit
    latencies come from the session drivers).
    """
    rsm = isinstance(spec, RsmRunSpec)
    if ctx is None:
        ctx = _own_context(spec)
    elif rsm and ctx.tracer is None:
        raise ConfigurationError(
            "execute_run(ctx=...) for an RSM spec needs a ctx with a tracer"
        )
    tracer = ctx.tracer

    def run():
        # A run cut short by its event budget is no report, checked or not.
        try:
            if rsm:
                result = run_rsm_spec(spec, ctx=ctx, workers_cap=workers_cap)
            else:
                result = run_abcast_spec(spec, ctx=ctx)
        except EventBudgetExhausted as exc:
            key = spec.cache_key()
            raise EventBudgetExhausted(f"spec {key}: {exc}", key) from None
        if result.sim.exhausted:
            raise EventBudgetExhausted.at(
                spec.max_events, result.sim.now, spec.horizon, spec.cache_key()
            )
        return result

    perf = None
    if collect_perf:
        from time import perf_counter

        from repro.perf import collect

        wall_start = perf_counter()
        result = run()
        wall_seconds = perf_counter() - wall_start
        perf = collect(
            result.sim,
            wall_seconds=wall_seconds,
            network_stats=result.network_stats,
            nodes=result.nodes,
            trace_counts=tracer.counts(),
            parallel=getattr(result, "parallel_stats", None),
        ).to_dict()
    else:
        result = run()
    service = None
    if rsm:
        from repro.rsm.runner import service_metrics, window_commit_latencies

        offered, latencies = window_commit_latencies(result)
        service = service_metrics(result)
    else:
        offered, latencies = window_latencies(result, spec.warmup, spec.duration)
    return RunReport(
        spec=spec,
        key=spec.cache_key(),
        offered=offered,
        delivered=len(latencies),
        latencies=tuple(latencies),
        summary=summarize(latencies),
        network=result.network_stats,
        trace_counts=tracer.counts(),
        sim_time=result.duration,
        perf=perf,
        rsm=service,
        obs=ctx.obs.section() if ctx.obs is not None else None,
    )


class SweepError(ReproError):
    """One or more sweep cells failed.

    Every cell that completed before the failure surfaced is already in the
    cache (write-behind), so re-running the sweep only re-executes the
    unfinished cells.  ``failures`` holds ``(spec_key, message)`` pairs in
    the order the failures were observed; :attr:`spec_key` is the offending
    key of the first one.
    """

    def __init__(self, failures: Sequence[tuple[str, str]]) -> None:
        self.failures = tuple(failures)
        key, message = self.failures[0]
        extra = f" (+{len(self.failures) - 1} more)" if len(self.failures) > 1 else ""
        super().__init__(f"sweep cell {key} failed: {message}{extra}")

    @property
    def spec_key(self) -> str:
        return self.failures[0][0]


@dataclass
class SweepResult:
    """Reports of one sweep, in spec order, plus cache accounting.

    ``notes`` carries human-readable scheduling remarks (currently: the
    jobs-clamped-to-CPUs note); the CLI echoes them to stderr.
    """

    reports: list[RunReport]
    cache_hits: int = 0
    cache_misses: int = 0
    notes: tuple[str, ...] = ()

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def by_protocol(self) -> dict[str, list[RunReport]]:
        out: dict[str, list[RunReport]] = {}
        for report in self.reports:
            out.setdefault(report.protocol, []).append(report)
        return out


CacheLike = Union[ResultCache, str, os.PathLike, None]

#: Progress observer: called as ``progress(done, total, report)`` once after
#: the cache scan (``report=None``) and once per freshly completed cell.
ProgressCallback = Callable[[int, int, "RunReport | None"], None]


def _as_cache(cache: CacheLike) -> ResultCache | None:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def run_sweep(
    specs: Sequence[AbcastRunSpec | RsmRunSpec],
    jobs: int = 1,
    cache: CacheLike = None,
    progress: ProgressCallback | None = None,
    clamp_jobs: bool = True,
) -> SweepResult:
    """Execute a grid of abcast/RSM specs, parallel across processes, cached.

    ``jobs`` > 1 fans cache misses over the persistent worker pool
    (:mod:`repro.engine.pool`): cells are dispatched longest-first in
    adaptive chunks, stitched back in as they complete, and each freshly
    executed report is written to ``cache`` immediately, so killing a sweep
    mid-grid loses nothing that finished.  Runs are independent
    deterministic simulations, so reports are byte-identical to serial
    execution (same ``cache_key``, same canonical JSON); parallel-fresh
    reports are decoded from that JSON, exactly like reports read back from
    the cache.

    ``jobs`` exceeding the schedulable CPUs is clamped (oversubscription
    only adds contention) and noted in ``SweepResult.notes``; pass
    ``clamp_jobs=False`` to force the requested width (tests/benchmarks).
    ``cache`` — a directory path or :class:`ResultCache` — serves unchanged
    cells from disk and persists fresh ones.  ``progress`` observes
    completion: ``progress(done, total, report)`` after the cache scan
    (``report=None``) and per fresh cell.

    A failing cell raises :class:`SweepError` carrying the offending spec's
    key — after every already-running cell has been drained into the cache.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    # Imported lazily: single-job CLI start-up stays free of pool machinery.
    from repro.engine.pool import available_cpus

    notes: list[str] = []
    if clamp_jobs and jobs > 1:
        cpus = available_cpus()
        if jobs > cpus:
            notes.append(f"jobs clamped from {jobs} to {cpus} available CPU(s)")
            jobs = cpus

    # Nested parallelism: a parallel (kernel-per-shard) cell spawns
    # spec.workers processes of its own.  Clamp the per-cell width so jobs × workers never
    # oversubscribes the schedulable CPUs — an execution cap only, threaded
    # beside the spec, so cache keys and deterministic outputs are untouched.
    workers_cap: int | None = None
    if jobs > 1:
        max_workers = max(
            (
                spec.workers or 1
                for spec in specs
                if getattr(spec, "parallel", False)
            ),
            default=1,
        )
        cpus = available_cpus()
        if jobs * max_workers > cpus:
            workers_cap = max(1, cpus // jobs)
            if workers_cap < max_workers:
                notes.append(
                    f"per-cell workers clamped to {workers_cap} so that "
                    f"{jobs} jobs × {max_workers} workers fit "
                    f"{cpus} available CPU(s)"
                )
            else:
                workers_cap = None

    store = _as_cache(cache)
    total = len(specs)
    reports: list[RunReport | None] = [None] * total
    pending: list[tuple[int, AbcastRunSpec | RsmRunSpec]] = []
    hits = 0
    if store is not None:
        for index, cached in enumerate(store.get_many(specs)):
            if cached is not None:
                reports[index] = cached
                hits += 1
            else:
                pending.append((index, specs[index]))
    else:
        pending = list(enumerate(specs))

    if progress is not None:
        progress(hits, total, None)

    if pending:
        if jobs > 1 and len(pending) > 1:
            _run_parallel(
                pending, jobs, reports, store, progress, hits, total, workers_cap
            )
        else:
            done = hits
            for index, spec in pending:
                try:
                    report = execute_run(spec, workers_cap=workers_cap)
                except Exception as exc:
                    raise SweepError(
                        [(spec.cache_key(), f"{type(exc).__name__}: {exc}")]
                    ) from exc
                reports[index] = report
                if store is not None:
                    store.put(report)
                done += 1
                if progress is not None:
                    progress(done, total, report)

    return SweepResult(
        reports=reports,
        cache_hits=hits,
        cache_misses=len(pending),
        notes=tuple(notes),
    )


def _run_parallel(
    pending: list[tuple[int, AbcastRunSpec | RsmRunSpec]],
    jobs: int,
    reports: list[RunReport | None],
    store: ResultCache | None,
    progress: ProgressCallback | None,
    hits: int,
    total: int,
    workers_cap: int | None = None,
) -> None:
    """Fan ``pending`` cells over the shared pool, streaming results in.

    Chunks are dispatched longest-first with at most ``jobs`` in flight (the
    shared pool may be wider than this sweep asked for).  Results land via
    ``FIRST_COMPLETED`` waits: each report is stitched into ``reports`` and
    written behind to ``store`` the moment its chunk finishes.  On failure,
    no new chunks are submitted, the in-flight ones are drained (their
    completed cells still cached), and a :class:`SweepError` surfaces the
    offending spec keys.
    """
    from concurrent.futures import FIRST_COMPLETED, wait

    from repro.engine.pool import plan_chunks, shared_pool

    pool = shared_pool(jobs)
    chunk_iter = iter(plan_chunks(pending, jobs))
    in_flight = {}
    for _ in range(jobs):
        chunk = next(chunk_iter, None)
        if chunk is None:
            break
        in_flight[pool.submit_chunk(chunk, workers_cap=workers_cap)] = chunk

    by_index = dict(pending)
    failures: list[tuple[str, str]] = []
    done = hits
    while in_flight:
        finished, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
        for future in finished:
            chunk = in_flight.pop(future)
            try:
                results = future.result()
            except Exception as exc:  # pool-level death (BrokenProcessPool)
                key = by_index[chunk[0][0]].cache_key()
                failures.append((key, f"{type(exc).__name__}: {exc}"))
                continue
            for index, status, payload in results:
                text = payload.decode("utf-8")
                if status != "ok":
                    failures.append((by_index[index].cache_key(), text))
                    continue
                report = RunReport.from_dict(json.loads(text))
                reports[index] = report
                if store is not None:
                    store.put(report, text=text)
                done += 1
                if progress is not None:
                    progress(done, total, report)
            if not failures:
                chunk = next(chunk_iter, None)
                if chunk is not None:
                    in_flight[pool.submit_chunk(chunk, workers_cap=workers_cap)] = (
                        chunk
                    )
    if failures:
        raise SweepError(failures)


def sweep_grid(
    protocols: Sequence[str],
    rates: Sequence[float],
    duration: float,
    n: int = 4,
    seed: int = 0,
    warmup: float = 0.0,
    drain: float = 1.5,
    repeats: int = 1,
    cluster: ClusterSpec | None = None,
    require_all_delivered: bool = False,
    max_events: int | None = 4_000_000,
) -> list[AbcastRunSpec]:
    """Build the protocol × rate × repeat spec grid of a Figure-2/3 sweep.

    Respects each protocol's registry ``default_n`` (Multi-Paxos runs at
    n = 3 as in the paper) and the historical seed derivation
    ``seed + rate_index + 1000 * repeat``, so grids reproduce the exact runs
    the serial driver always did.
    """
    cluster = cluster if cluster is not None else ClusterSpec()
    specs: list[AbcastRunSpec] = []
    for name in protocols:
        info = get_protocol(name, kind=ABCAST)
        group = info.default_n or n
        for index, rate in enumerate(rates):
            for repeat in range(repeats):
                specs.append(
                    AbcastRunSpec(
                        protocol=name,
                        rate=rate,
                        duration=duration,
                        n=group,
                        seed=seed + index + 1000 * repeat,
                        warmup=warmup,
                        drain=drain,
                        cluster=cluster,
                        require_all_delivered=require_all_delivered,
                        max_events=max_events,
                    )
                )
    return specs


def rsm_sweep_grid(
    protocol: str,
    rate: float,
    duration: float,
    shards: Sequence[int] = (1,),
    group_sizes: Sequence[int] = (3,),
    clients: int = 8,
    seed: int = 0,
    warmup: float = 0.0,
    keys: int = 32,
    partitioner: str = "hash",
    txn_clients: int = 0,
    txn_rate: float = 0.0,
    txn_keys: int = 2,
    repeats: int = 1,
    cluster: ClusterSpec | None = None,
    max_events: int | None = 4_000_000,
) -> list[RsmRunSpec]:
    """Build the shards × group-size spec grid of a scale-out RSM sweep.

    This is the shard-axis analogue of :func:`sweep_grid`: one cell per
    (shard count, group size, repeat), all at the same offered rate, so
    BENCH/EXPERIMENTS can plot aggregate ops/s against the shard count.
    Cells repeat with seeds ``seed + 1000 × repeat``, mirroring the
    historical repeat derivation.  A 1-shard hash-partitioned cell is the
    default ``TopologySpec``, so it shares single-group cache entries.
    """
    cluster = cluster if cluster is not None else ClusterSpec()
    specs: list[RsmRunSpec] = []
    for groups in shards:
        for size in group_sizes:
            for repeat in range(repeats):
                specs.append(
                    RsmRunSpec(
                        protocol=protocol,
                        rate=rate,
                        duration=duration,
                        n=size,
                        clients=clients,
                        seed=seed + 1000 * repeat,
                        warmup=warmup,
                        keys=keys,
                        cluster=cluster,
                        topology=TopologySpec(groups=groups, partitioner=partitioner),
                        txn_clients=txn_clients,
                        txn_rate=txn_rate,
                        txn_keys=txn_keys,
                        max_events=max_events,
                    )
                )
    return specs

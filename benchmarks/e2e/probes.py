"""``--trace 1``: attribute a workload's wall time to layers, from outside.

Nothing under ``src/`` is instrumented.  Three views, all taken in passes of
their own so they never mix into the end-to-end numbers:

1. *Phase spans* — ``execute_run``'s pipeline replayed stage by stage through
   public functions, one span per stage per cell.
2. *Layer table* — the workload's pass under ``cProfile``; self time and call
   counts bucketed by source module into the repo's layers.
3. *Exact counts* — event/message/record counters read off the finished runs.

Every probe reaches past ``repro.engine``/``repro.obs`` through names looked up
at run time: a missing or renamed entry point turns its metrics into ``null``
with a note, it never raises.
"""

from __future__ import annotations

import cProfile
import dataclasses
import importlib
import json
import os
import pstats
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import repro
from repro.engine import (
    ResultCache,
    RunContext,
    RunReport,
    execute_run,
    run_abcast_spec,
    run_rsm_spec,
    run_sweep,
    shared_pool,
    shutdown_shared_pool,
)
from repro.obs import ObsRuntime, SpanBuilder

from workloads import POOL_JOBS

LAYERS = (
    "sim.kernel", "sim.network", "sim.node", "sim.process", "sim.trace",
    "sim.storage", "sim.parallel", "rsm.replica", "rsm.machine", "rsm.shard",
    "rsm.session", "engine", "obs", "core", "protocols", "fd", "oracles",
    "harness", "workload", "other",
)  # fmt: skip

#: Source file -> layer, for the packages whose files are layers of their own.
_FILE_LAYERS = {
    **{f"sim/{m}.py": f"sim.{m}" for m in
       ("kernel", "network", "node", "process", "trace", "storage", "parallel")},
    "rsm/replica.py": "rsm.replica",
    "rsm/machine.py": "rsm.machine",
    "rsm/shard.py": "rsm.shard",
    "rsm/client.py": "rsm.session",
    "rsm/session.py": "rsm.session",
    "rsm/batcher.py": "rsm.session",
    "rsm/runner.py": "rsm.session",
    "rsm/parallel.py": "sim.parallel",
}  # fmt: skip
_DIR_LAYERS = {
    "engine", "obs", "core", "protocols", "fd", "oracles", "harness", "workload",
}  # fmt: skip

_PKG = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_HERE = os.path.dirname(os.path.abspath(__file__)) + os.sep

#: (name, unit, better) of every per-layer metric, in emission order.
PER_LAYER = (
    [(f"{layer}.self_share", "share", "lower") for layer in LAYERS]
    + [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.unattributed_share", "share", "lower"),
        ("engine.spec.key_us", "us", "lower"),
        ("engine.run_s", "s", "lower"),
        ("engine.distil_s", "s", "lower"),
        ("engine.report.to_json_s", "s", "lower"),
        ("engine.report.from_json_s", "s", "lower"),
        ("engine.report.bytes", "bytes", "lower"),
        ("engine.cache.put_s", "s", "lower"),
        ("engine.cache.get_s", "s", "lower"),
        ("engine.pool.start_s", "s", "lower"),
        ("engine.pool.efficiency", "ratio", "higher"),
        ("harness.checkers.check_s", "s", "lower"),
        ("obs.run_overhead_ratio", "ratio", "lower"),
        ("obs.build_entry_s", "s", "lower"),
        ("obs.spans_s", "s", "lower"),
        ("obs.causal_s", "s", "lower"),
        ("obs.export_chrome_s", "s", "lower"),
        ("sim.kernel.events", "count", "lower"),
        ("sim.kernel.events_per_s", "1/s", "higher"),
        ("sim.kernel.batched_share", "share", "higher"),
        ("sim.network.sent", "count", "lower"),
        ("sim.network.bytes_sent", "bytes", "lower"),
        ("sim.network.msgs_per_op", "count", "lower"),
        ("sim.node.max_utilization", "share", "lower"),
        ("sim.trace.records", "count", "lower"),
        ("sim.trace.records_per_op", "count", "lower"),
        ("core.one_step_share", "share", "higher"),
        ("core.mean_steps", "count", "lower"),
        ("rsm.replica.applied", "count", "higher"),
        ("rsm.replica.snapshots", "count", "lower"),
        ("rsm.replica.catchup_replayed", "count", "lower"),
        ("rsm.session.retries", "count", "lower"),
        ("rsm.session.dedup_suppressed", "count", "lower"),
        ("rsm.session.mean_batch", "count", "higher"),
        ("rsm.shard.txns_committed", "count", "higher"),
        ("rsm.shard.txn_abort_share", "share", "lower"),
        ("obs.records", "count", "lower"),
    ]
)


# ------------------------------------------------------------------ phase spans


class SpanLog:
    """In-memory spans: name, start, end, parent index, and the cell they
    belong to (its ``cache_key``, shared by every stage of that cell)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        parent = self._open[-1] if self._open else None
        if cell is None and parent is not None:
            cell = self.spans[parent]["cell"]
        record = {"name": name, "cell": cell, "parent": parent, "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float | None:
        """Summed duration of every span called ``name``; None if there is none."""
        durations = [s["end"] - s["start"] for s in self.spans if s["name"] == name]
        return sum(durations) if durations else None

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)


class _Outside:
    """Entry points the probes use beyond ``repro.engine``/``repro.obs``,
    resolved by name; an absent one is ``None`` and leaves a note."""

    _NAMES = {
        "Tracer": "repro.sim.trace",
        "window_latencies": "repro.engine.runner",
        "summarize": "repro.workload.metrics",
        "window_commit_latencies": "repro.rsm.runner",
        "service_metrics": "repro.rsm.runner",
        "collect": "repro.perf",
        "KvStore": "repro.rsm.machine",
        "TxnKvStore": "repro.rsm.machine",
        "check_uniform_total_order": "repro.harness.checkers",
        "check_abcast_validity": "repro.harness.checkers",
        "check_rsm_linearizable": "repro.harness.checkers",
        "check_rsm_exactly_once": "repro.harness.checkers",
        "check_rsm_session_order": "repro.harness.checkers",
        "check_rsm_log_consistent": "repro.harness.checkers",
        "check_cross_shard_serializable": "repro.harness.checkers",
    }

    def __init__(self, notes: list[str]) -> None:
        for name, module in self._NAMES.items():
            try:
                value = getattr(importlib.import_module(module), name)
            except (ImportError, AttributeError) as exc:
                notes.append(f"{module}.{name} unavailable ({type(exc).__name__}): dependent metrics are null")
                value = None
            setattr(self, name, value)

    def have(self, *names: str) -> bool:
        return all(getattr(self, name) is not None for name in names)


def _wants_obs(spec) -> bool:
    return bool(
        getattr(spec, "obs", False)
        or getattr(spec, "obs_metrics_interval", 0.0)
        or getattr(spec, "obs_flight_recorder", 0)
    )


def _distil(api: _Outside, spec, key, result, tracer, obs) -> RunReport | None:
    """``execute_run``'s distillation, rebuilt from its public parts."""
    rsm = None
    if hasattr(spec, "clients"):
        if not api.have("window_commit_latencies", "service_metrics", "summarize"):
            return None
        offered, latencies = api.window_commit_latencies(result)
        rsm = api.service_metrics(result)
    else:
        if not api.have("window_latencies", "summarize"):
            return None
        offered, latencies = api.window_latencies(result, spec.warmup, spec.duration)
    return RunReport(
        spec=spec,
        key=key,
        offered=offered,
        delivered=len(latencies),
        latencies=tuple(latencies),
        summary=api.summarize(latencies),
        network=result.network_stats,
        trace_counts=tracer.counts(),
        sim_time=result.duration,
        rsm=rsm,
        obs=obs.section() if obs is not None else None,
    )


def _recheck(api: _Outside, result) -> bool:
    """Re-run the public ``check_*`` functions on a finished run, the way the
    runners call them.  False when a needed checker is unavailable."""
    if hasattr(result, "deliveries"):
        if not api.have("check_uniform_total_order", "check_abcast_validity"):
            return False
        api.check_uniform_total_order(result.deliveries)
        api.check_abcast_validity(result.broadcast, result.deliveries)
        return True
    if not api.have(
        "check_uniform_total_order", "check_rsm_linearizable", "check_rsm_exactly_once",
        "check_rsm_session_order", "check_rsm_log_consistent", "KvStore", "TxnKvStore",
    ):  # fmt: skip
        return False
    sharded = hasattr(result, "authorities")
    if sharded and not api.have("check_cross_shard_serializable"):
        return False
    groups = (
        {shard: (result.shard_pids(shard), auth) for shard, auth in result.authorities.items()}
        if sharded
        else {0: (sorted(result.replicas), result.authority)}
    )
    for pids, authority in groups.values():
        replicas = result.replicas
        api.check_rsm_linearizable(
            [(e.request.command, e.result) for e in replicas[authority].audit],
            api.TxnKvStore() if sharded else api.KvStore(),
        )
        api.check_uniform_total_order(
            {p: replicas[p].abcast.delivered_ids for p in pids if p not in result.crashed}
        )
        audited = {p: [e.request.rid for e in replicas[p].audit] for p in pids}
        api.check_rsm_exactly_once(audited)
        api.check_rsm_session_order(audited)
        api.check_rsm_log_consistent(
            {p: [(e.index, e.request.rid) for e in replicas[p].audit] for p in pids}
        )
    if sharded:
        api.check_cross_shard_serializable(result.commit_orders)
    return True


def staged_pass(wl, expected: list[str], log: SpanLog, notes: list[str]) -> dict:
    """Replay every cell of ``wl`` stage by stage; returns summed exact counts.

    ``expected`` is the end-to-end pass's report JSON per cell: the replayed
    report must serialise to the same bytes, or the stage times describe a
    different pipeline than the one users run (noted, not hidden).
    """
    api = _Outside(notes)
    counts: dict = defaultdict(float)
    batch_sizes: list[int] = []
    cache_dir = os.path.join(wl.scratch, "staged-cache")
    diverged = 0
    for index, spec in enumerate(wl.specs):
        key = spec.cache_key()
        with log.span("cell", cell=key):
            with log.span("engine.spec.key"):
                spec.cache_key()
            if api.Tracer is None:
                continue
            tracer = api.Tracer()
            obs = ObsRuntime.from_spec(spec, tracer=tracer) if _wants_obs(spec) else None
            ctx = RunContext(tracer=tracer, obs=obs)
            runner = run_rsm_spec if hasattr(spec, "clients") else run_abcast_spec
            with log.span("engine.run") as run_span:
                result = runner(spec, ctx=ctx)
            with log.span("engine.distil") as distil_span:
                report = _distil(api, spec, key, result, tracer, obs)
            if report is None:
                distil_span["name"] = "engine.distil.unavailable"
                continue
            with log.span("engine.report.to_json"):
                text = report.to_json()
            with log.span("engine.report.from_json"):
                RunReport.from_dict(json.loads(text))
            with log.span("engine.cache.put"):
                ResultCache(cache_dir).put(report, text=text)
            with log.span("engine.cache.get"):
                cached = ResultCache(cache_dir).get(spec)
            with log.span("harness.checkers.check") as check_span:
                if not _recheck(api, result):
                    check_span["name"] = "harness.checkers.check.unavailable"
            if hasattr(wl, "explain"):
                wl.explain(report, tracer.records, span=log.span)

        if text != expected[index] or cached is None:
            diverged += 1
        counts["report_bytes"] += len(text)
        counts["ops"] += report.delivered
        counts["records"] += len(tracer.records)
        counts["report_sent"] += report.network["sent"]
        counts["report_delivered"] += report.network["delivered"]
        if api.collect is not None:
            parts = api.collect(
                result.sim,
                wall_seconds=run_span["end"] - run_span["start"],
                network_stats=result.network_stats,
                nodes=result.nodes,
                trace_counts=tracer.counts(),
            ).components
            counts["events"] += parts["kernel"]["events_processed"]
            counts["batched"] += parts["kernel"]["batched_events"]
            counts["bytes_sent"] += parts["network"]["bytes_sent"]
            counts["max_utilization"] = max(
                [counts["max_utilization"]]
                + [node["utilization"] for node in parts["nodes"].values()]
            )
        if report.rsm is not None:
            rsm = report.rsm
            counts["applied"] += rsm["committed"]
            counts["snapshots"] += rsm["snapshots"]["taken"]
            counts["replayed"] += sum(r["replayed"] for r in rsm["recovery"].values())
            counts["retries"] += rsm["dedup"]["retries"]
            counts["suppressed"] += rsm["dedup"]["suppressed"]
            txns = rsm.get("txns", {})
            counts["txns_committed"] += txns.get("committed", 0)
            counts["txns_aborted"] += txns.get("aborted", 0)
            counts["txns_started"] += txns.get("started", 0)
            authorities = getattr(result, "authorities", None)
            for pid in authorities.values() if authorities else [result.authority]:
                batch_sizes += result.replicas[pid].batch_sizes
    if diverged:
        notes.append(
            f"staged replay diverged from execute_run on {diverged} of {len(wl.specs)} cells: "
            "phase spans describe a different pipeline than the end-to-end path"
        )
    counts["have_perf"] = api.collect is not None
    counts["mean_batch"] = sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
    return counts


def pool_probe(wl, log: SpanLog) -> tuple[float, float]:
    """(pool start seconds, parallel efficiency) of the pooled workload."""
    shutdown_shared_pool()
    with log.span("engine.pool.start") as start:
        shared_pool(POOL_JOBS).warm()
    with log.span("engine.pool.serial_sweep") as serial:
        run_sweep(wl.specs, jobs=1)
    with log.span("engine.pool.parallel_sweep") as parallel:
        run_sweep(wl.specs, jobs=POOL_JOBS)
    width = lambda s: s["end"] - s["start"]  # noqa: E731
    return width(start), width(serial) / (POOL_JOBS * width(parallel))


def obs_probe(wl, log: SpanLog) -> dict:
    """Observability overhead and step counts on the workload's busiest cells.

    Runs each probed spec with obs off then on (interleaved, same seed) and
    reads decision step counts off the obs-on trace — the default trace has
    no per-instance records to count steps from.
    """
    top = max(spec.rate for spec in wl.specs)
    picked: dict = {}
    for spec in wl.specs:
        if spec.rate == top:
            picked.setdefault(spec.protocol, spec)
    off_s = on_s = 0.0
    records = decided = one_step = steps = 0
    for spec in picked.values():
        plain = dataclasses.replace(spec, obs=False, obs_metrics_interval=0.0, obs_flight_recorder=0)
        observed = spec if _wants_obs(spec) else dataclasses.replace(spec, obs=True)
        offs, ons = [], []
        # One pair of a sub-second run is mostly machine noise: short specs
        # get three pairs and the medians.
        while not offs or (len(offs) < 3 and offs[0] < 0.5):
            with log.span("obs.probe.off", cell=plain.cache_key()) as off:
                execute_run(plain)
            runtime = ObsRuntime.from_spec(observed)
            with log.span("obs.probe.on", cell=observed.cache_key()) as on:
                execute_run(observed, ctx=RunContext(obs=runtime))
            offs.append(off["end"] - off["start"])
            ons.append(on["end"] - on["start"])
        off_s += statistics.median(offs)
        on_s += statistics.median(ons)
        records += len(runtime.tracer.records)
        summary = SpanBuilder().add_records(runtime.tracer.records).summary()
        decided += summary["decided"]
        one_step += summary["fast_path"]
        steps += sum(int(k) * n for k, n in summary["steps_histogram"].items() if k.isdigit())
    return {
        "obs.run_overhead_ratio": on_s / off_s,
        "obs.records": records,
        "core.one_step_share": one_step / decided if decided else 0.0,
        "core.mean_steps": steps / decided if decided else 0.0,
    }


# ------------------------------------------------------------------ layer table


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to; None for stdlib and builtins."""
    path = os.path.abspath(filename) if not filename.startswith("~") else filename
    if path.startswith(_PKG):
        rel = path[len(_PKG):].replace(os.sep, "/")
        if rel in _FILE_LAYERS:
            return _FILE_LAYERS[rel]
        head = rel.split("/", 1)[0]
        return head if head in _DIR_LAYERS else "other"
    return "other" if path.startswith(_HERE) else None


def layer_table(stats: dict) -> tuple[dict, dict, float]:
    """Bucket a ``pstats`` table: (self seconds, calls, unattributed seconds)
    per layer.  Builtin/stdlib self time is charged to the calling layer
    through the caller edges, recursively; what no repro frame called lands
    in ``other`` and is also reported as unattributed."""
    own = {func: layer_of(func[0]) for func in stats}
    memo: dict = {}

    def spread(func, path=()) -> dict:
        """layer -> fraction of a non-repro function's self time."""
        if func in memo:
            return memo[func]
        callers = stats[func][4]
        total = sum(edge[2] for edge in callers.values())
        weigh = (lambda e: e[2] / total) if total > 0 else (lambda e: 1.0 / len(callers))
        out: dict = defaultdict(float)
        for caller, edge in callers.items():
            layer = own.get(caller)
            if layer is not None:
                out[layer] += weigh(edge)
            elif caller == func or caller in path:
                continue  # recursion (json encoders, ...): follow the other edges
            elif caller in stats:
                for name, share in spread(caller, path + (func,)).items():
                    out[name] += weigh(edge) * share
            else:
                out[None] += weigh(edge)
        scale = sum(out.values())
        result = {name: share / scale for name, share in out.items()} if scale > 0 else {None: 1.0}
        if not path:  # a result reached through a cut cycle is partial: do not keep it
            memo[func] = result
        return result

    seconds: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    unattributed = 0.0
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = own[func]
        if layer is not None:
            seconds[layer] += tt
            calls[layer] += nc
            continue
        for name, share in spread(func).items():
            if name is None:
                unattributed += tt * share
                seconds["other"] += tt * share
            else:
                seconds[name] += tt * share
    return seconds, calls, unattributed


def profiled_pass(wl) -> tuple[dict, float]:
    """One pass of ``wl`` under cProfile: (pstats table, wall seconds)."""
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.runcall(wl.run_pass)
    wall = time.perf_counter() - start
    return pstats.Stats(profile).stats, wall


def _calls_of(stats: dict, suffix: str, name: str) -> int:
    return sum(
        entry[1]
        for (filename, _line, func), entry in stats.items()
        if func == name and filename.replace(os.sep, "/").endswith(suffix)
    )


# ------------------------------------------------------------------- the tracer


def trace(wl, expected: list[str], untraced_wall: float) -> tuple[dict, list[str], bool, SpanLog]:
    """Run every probe on ``wl``: (metrics, notes, self-checks ok, span log)."""
    notes: list[str] = []
    log = SpanLog()
    metrics: dict = {name: None for name, _unit, _better in PER_LAYER}

    counts = staged_pass(wl, expected, log, notes)
    cells = len(wl.specs)

    def stage(name: str) -> float | None:
        # A stage no cell of this workload runs costs it nothing: 0, not null.
        if log.count(name + ".unavailable"):
            return None
        return log.total(name) or 0.0

    key_s = log.total("engine.spec.key")
    metrics["engine.spec.key_us"] = key_s / cells * 1e6
    for name in ("engine.run", "engine.distil", "engine.report.to_json", "engine.report.from_json",
                 "engine.cache.put", "engine.cache.get", "harness.checkers.check",
                 "obs.build_entry", "obs.spans", "obs.causal", "obs.export_chrome"):  # fmt: skip
        metrics[name + "_s"] = stage(name) if log.count("engine.run") else None
    if log.count("engine.report.to_json"):
        ops = counts["ops"] or 1
        metrics["engine.report.bytes"] = counts["report_bytes"]
        metrics["sim.network.sent"] = counts["report_sent"]
        metrics["sim.network.msgs_per_op"] = counts["report_sent"] / ops
        metrics["sim.trace.records"] = counts["records"]
        metrics["sim.trace.records_per_op"] = counts["records"] / ops
        metrics["rsm.replica.applied"] = counts["applied"]
        metrics["rsm.replica.snapshots"] = counts["snapshots"]
        metrics["rsm.replica.catchup_replayed"] = counts["replayed"]
        metrics["rsm.session.retries"] = counts["retries"]
        metrics["rsm.session.dedup_suppressed"] = counts["suppressed"]
        metrics["rsm.session.mean_batch"] = counts["mean_batch"]
        metrics["rsm.shard.txns_committed"] = counts["txns_committed"]
        started = counts["txns_started"]
        metrics["rsm.shard.txn_abort_share"] = counts["txns_aborted"] / started if started else 0.0
        if counts["have_perf"]:
            events = counts["events"]
            metrics["sim.kernel.events"] = events
            metrics["sim.kernel.events_per_s"] = events / log.total("engine.run")
            metrics["sim.kernel.batched_share"] = counts["batched"] / events if events else 0.0
            metrics["sim.network.bytes_sent"] = counts["bytes_sent"]
            metrics["sim.node.max_utilization"] = counts["max_utilization"]

    if wl.pooled:
        metrics["engine.pool.start_s"], metrics["engine.pool.efficiency"] = pool_probe(wl, log)
    else:  # no pool in this workload's pass
        metrics["engine.pool.start_s"] = metrics["engine.pool.efficiency"] = 0.0
    metrics.update(obs_probe(wl, log))

    first, first_wall = profiled_pass(wl)
    second, second_wall = profiled_pass(wl)
    seconds, calls, unattributed = layer_table(second)
    total = sum(entry[2] for entry in second.values())
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = seconds[layer] / total
        metrics[f"{layer}.calls"] = calls[layer]
    metrics["trace.unattributed_share"] = unattributed / total
    metrics["trace.overhead_ratio"] = (first_wall + second_wall) / 2 / untraced_wall

    # Self-checks.  Shares that do not add up fail the run; the other two are
    # reported, because they say how far the table can be trusted.
    share_sum = sum(metrics[f"{layer}.self_share"] for layer in LAYERS)
    ok = abs(share_sum - 1.0) <= 0.02
    notes.append(f"layer shares sum to {share_sum:.4f} ({'ok' if ok else 'FAILED: outside 1 +/- 0.02'})")
    _, first_calls, _ = layer_table(first)
    unstable = [
        f"{layer} ({first_calls[layer]} vs {calls[layer]})"
        for layer in LAYERS
        if layer.startswith("sim.") and first_calls[layer] != calls[layer]
    ]
    notes.append(
        "sim.* call counts of two traced passes: "
        + ("identical" if not unstable else "unstable: " + ", ".join(unstable))
    )
    if wl.pooled:
        notes.append("profile vs report counters: not comparable, the simulation runs in pool workers")
    elif log.count("engine.report.to_json"):
        pairs = {
            "sim.network delivered": (_calls_of(second, "sim/node.py", "deliver_from"), counts["report_delivered"]),
            "sim.trace records": (_calls_of(second, "sim/trace.py", "emit"), counts["records"]),
        }
        for label, (profiled, reported) in pairs.items():
            verdict = "agree" if profiled == reported else "DISAGREE"
            notes.append(f"profile vs report counters, {label}: {profiled} vs {int(reported)} ({verdict})")
    return metrics, notes, ok, log

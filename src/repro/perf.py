"""Run-time observability for simulator runs.

The simulator is deterministic, so *what* a run computes never depends on
wall-clock time — but *how fast* it computes it is exactly what the PR-2
hot-path work optimises.  This module turns one finished run into a
:class:`PerfReport`: per-component event counters (kernel, network, nodes,
tracer), throughput (events per wall-second) and the time-dilation factor
(virtual seconds simulated per wall second).

Collection is strictly opt-in.  The default sweep path never imports this
module and never reads the wall clock, so enabling or disabling perf
collection cannot perturb a run's trace, decisions or JSON output.

Entry points
------------
* :func:`collect` — distil a finished run (simulator + stats snapshots)
  into a :class:`PerfReport`;
* :func:`profile_call` — run any callable under :mod:`cProfile` and return
  its result plus the formatted hot-function table;
* ``python -m repro profile <spec args>`` — the CLI front-end
  (:mod:`repro.cli`), which executes one spec with collection enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = ["PERF_SCHEMA", "PerfReport", "collect", "profile_call", "format_perf"]

#: Schema tag written into every serialised perf section.
PERF_SCHEMA = "repro.perf.v1"


@dataclass(frozen=True)
class PerfReport:
    """Observed cost of one run.

    ``components`` maps component name (``"kernel"``, ``"network"``,
    ``"nodes"``, ``"trace"``) to its counter dict; see :func:`collect` for
    the exact keys.  ``profile``, when present, is the formatted
    :mod:`pstats` table of the hottest functions (one string per line).
    """

    wall_seconds: float
    sim_seconds: float
    events_processed: int
    events_per_wall_second: float
    virtual_seconds_per_wall_second: float
    components: dict
    profile: tuple[str, ...] | None = field(default=None)

    # ----------------------------------------------------------- persistence

    def to_dict(self) -> dict:
        data = {
            "schema": PERF_SCHEMA,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "events_processed": self.events_processed,
            "events_per_wall_second": self.events_per_wall_second,
            "virtual_seconds_per_wall_second": self.virtual_seconds_per_wall_second,
            "components": self.components,
        }
        if self.profile is not None:
            data["profile"] = list(self.profile)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PerfReport":
        profile = data.get("profile")
        return cls(
            wall_seconds=data["wall_seconds"],
            sim_seconds=data["sim_seconds"],
            events_processed=data["events_processed"],
            events_per_wall_second=data["events_per_wall_second"],
            virtual_seconds_per_wall_second=data["virtual_seconds_per_wall_second"],
            components=data["components"],
            profile=None if profile is None else tuple(profile),
        )


def collect(
    sim,
    *,
    wall_seconds: float,
    network_stats: Mapping[str, Any] | None = None,
    nodes: Mapping[int, Any] | None = None,
    trace_counts: Mapping[str, int] | None = None,
    parallel: Mapping[str, Any] | None = None,
    profile: tuple[str, ...] | None = None,
) -> PerfReport:
    """Distil a finished run into a :class:`PerfReport`.

    Parameters
    ----------
    sim:
        The :class:`~repro.sim.kernel.Simulator` after :meth:`run` returned.
    wall_seconds:
        Wall-clock duration of the run, measured by the caller around the
        drive loop (this module never reads the clock itself).
    network_stats:
        A :meth:`~repro.sim.network.NetworkStats.snapshot` dict, if the run
        had a network.
    nodes:
        pid -> :class:`~repro.sim.node.Node` mapping, for per-node handler
        counts and CPU-model busy time.
    trace_counts:
        Per-kind record counts from :meth:`~repro.sim.trace.Tracer.counts`.
    parallel:
        For kernel-per-shard parallel runs: ``partitions``, the *actual*
        ``workers`` used and ``events_by_partition``.  (The spec-level
        ``workers`` request lives in the deterministic report sections;
        this component records what execution really did.)
    profile:
        Pre-formatted profiler output from :func:`profile_call`, if any.
    """
    processed = sim.events_processed
    sim_seconds = sim.now
    components: dict[str, dict] = {
        "kernel": {
            "events_processed": processed,
            "events_scheduled": sim.events_scheduled,
            "events_pending": sim.pending(),
            "compactions": sim.compactions,
            # Sorted-cohort drain counters: how many gather cycles ran and
            # how many events they covered (the rest went through per-event
            # pops — shallow-queue fallback or merge-guard executions).
            "drain_batches": getattr(sim, "drain_batches", 0),
            "batched_events": getattr(sim, "batched_events", 0),
        }
    }
    if network_stats is not None:
        network_component = {
            "sent": network_stats.get("sent", 0),
            "delivered": network_stats.get("delivered", 0),
            "dropped": network_stats.get("dropped", 0),
            "bytes_sent": network_stats.get("bytes_sent", 0),
            "by_kind": dict(network_stats.get("by_kind", {})),
        }
        components["network"] = network_component
    if nodes is not None:
        components["nodes"] = {
            str(pid): {
                "events_handled": node.events_handled,
                "busy_time": node.busy_time,
                "utilization": node.utilization(),
            }
            for pid, node in sorted(nodes.items())
        }
    if trace_counts is not None:
        components["trace"] = dict(trace_counts)
    if parallel is not None:
        components["parallel"] = dict(parallel)
    safe_wall = wall_seconds if wall_seconds > 0.0 else float("inf")
    return PerfReport(
        wall_seconds=wall_seconds,
        sim_seconds=sim_seconds,
        events_processed=processed,
        events_per_wall_second=processed / safe_wall,
        virtual_seconds_per_wall_second=sim_seconds / safe_wall,
        components=components,
        profile=profile,
    )


def profile_call(
    fn: Callable[..., Any], *args: Any, top: int = 20, **kwargs: Any
) -> tuple[Any, tuple[str, ...]]:
    """Run ``fn(*args, **kwargs)`` under :mod:`cProfile`.

    Returns ``(result, lines)`` where ``lines`` is the :mod:`pstats` table
    of the ``top`` functions by cumulative time.  Note that cProfile's
    tracing overhead inflates wall time severalfold — use the output for
    *ratios* between functions, not absolute speed.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(top)
    lines = tuple(
        line.rstrip() for line in stream.getvalue().splitlines() if line.strip()
    )
    return result, lines


def format_perf(perf: Mapping[str, Any]) -> str:
    """Render a serialised perf section (``PerfReport.to_dict``) for humans."""
    lines: list[str] = []
    wall = perf["wall_seconds"]
    lines.append(
        f"wall     : {wall:.3f} s for {perf['sim_seconds']:.3f} virtual-s "
        f"({perf['virtual_seconds_per_wall_second']:.1f} virtual-s / wall-s)"
    )
    lines.append(
        f"events   : {perf['events_processed']:,} processed "
        f"({perf['events_per_wall_second']:,.0f} events/s)"
    )
    components = perf["components"]
    kernel = components.get("kernel", {})
    if kernel:
        lines.append(
            f"kernel   : {kernel['events_scheduled']:,} scheduled, "
            f"{kernel['events_pending']:,} pending at exit, "
            f"{kernel['compactions']} compaction(s)"
        )
        batched = kernel.get("batched_events", 0)
        if batched:
            batches = kernel.get("drain_batches", 0)
            mean = batched / batches if batches else 0.0
            lines.append(
                f"  drain  : {batched:,} events in {batches:,} sorted "
                f"cohort(s) (mean {mean:,.0f}/batch)"
            )
    network = components.get("network")
    if network is not None:
        lines.append(
            f"network  : {network['sent']:,} sent, {network['delivered']:,} "
            f"delivered, {network['dropped']:,} dropped, "
            f"{network['bytes_sent']:,} bytes on the wire"
        )
        by_kind = network.get("by_kind", {})
        if by_kind:
            ranked = sorted(by_kind.items(), key=lambda kv: (-kv[1], kv[0]))
            kinds = ", ".join(f"{kind} {count:,}" for kind, count in ranked)
            lines.append(f"  by kind: {kinds}")
    nodes = components.get("nodes")
    if nodes:
        for pid, counters in nodes.items():
            lines.append(
                f"node p{pid} : {counters['events_handled']:,} handled, "
                f"busy {counters['busy_time']:.3f} s "
                f"({counters['utilization']:.0%} util)"
            )
    parallel = components.get("parallel")
    if parallel:
        lines.append(
            f"parallel : {parallel['partitions']} partition(s) on "
            f"{parallel['workers']} worker(s)"
        )
        events = parallel.get("events_by_partition") or []
        if events:
            spread = ", ".join(f"{count:,}" for count in events)
            lines.append(f"  events : per partition {spread}")
    trace = components.get("trace")
    if trace:
        ranked = sorted(trace.items(), key=lambda kv: (-kv[1], kv[0]))
        counts = ", ".join(f"{kind} {count:,}" for kind, count in ranked)
        lines.append(f"trace    : {counts}")
    return "\n".join(lines)

"""Structured result of one engine-executed run, JSON-serialisable.

A :class:`RunReport` is everything the evaluation needs from a run without
holding the simulator alive: the spec that produced it, window latencies
and their summary, per-kind message counts and byte estimates from the
:class:`~repro.sim.network.NetworkStats` counters, and per-kind trace
counts from the :class:`~repro.sim.trace.Tracer`.  Reports round-trip
through plain dicts (:meth:`to_dict` / :meth:`from_dict`), which is both
the on-disk cache format and the ``sweep --json`` export format.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Sequence

from repro.engine.spec import AbcastRunSpec, RsmRunSpec, spec_from_dict
from repro.workload.metrics import LatencySummary

__all__ = ["REPORT_SCHEMA", "RunReport"]

#: Schema tag written into every serialised report.
REPORT_SCHEMA = "repro.run-report.v1"


@dataclass(frozen=True)
class RunReport:
    """Outcome of one atomic-broadcast run, keyed by its spec hash.

    ``offered``/``delivered``/``latencies`` cover the measurement window
    ``[spec.warmup, spec.duration]`` (latency is the paper's: shortest delay
    between a-broadcast and first a-delivery).  ``network`` is the
    :meth:`NetworkStats.snapshot` dict (message counts, per-kind counts,
    byte estimates) over the whole run; ``trace_counts`` counts trace
    records per kind.
    """

    spec: AbcastRunSpec | RsmRunSpec
    key: str
    offered: int
    delivered: int
    latencies: tuple[float, ...]
    summary: LatencySummary
    network: dict
    trace_counts: dict
    sim_time: float
    #: Optional :mod:`repro.perf` section (``PerfReport.to_dict``), attached
    #: only when the run was executed with ``collect_perf=True``.  Omitted
    #: from :meth:`to_dict` when absent so default sweep JSON is unchanged.
    perf: dict | None = None
    #: Optional service-level section for RSM runs
    #: (:func:`repro.rsm.runner.service_metrics`): committed-ops/s, commit
    #: latency percentiles, batching, apply lag, snapshots, dedup, recovery.
    rsm: dict | None = None
    #: Optional ``repro.obs.v1`` metrics section
    #: (:meth:`repro.obs.ObsRuntime.section`), attached only when the spec
    #: enabled the virtual-time gauge sampler.  Omitted from :meth:`to_dict`
    #: when absent so default sweep JSON is unchanged.
    obs: dict | None = None

    # ------------------------------------------------------------- shortcuts

    @property
    def protocol(self) -> str:
        return self.spec.protocol

    @property
    def rate(self) -> float:
        return self.spec.rate

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def mean_latency_ms(self) -> float:
        return self.summary.mean * 1e3

    @property
    def loss_fraction(self) -> float:
        if self.offered == 0:
            return 0.0
        return 1.0 - self.delivered / self.offered

    def latency_summary_dict(self) -> dict | None:
        """The window-latency summary in the unified percentile vocabulary.

        Same keys as :meth:`MetricsRegistry.histogram_summary` and the span
        summary's ``decision_latency`` buckets (count/min/max/mean/p50/p95/
        p99), so warehouse entries and obs sections read alike.  ``None``
        for an empty window; NaN statistics (summaries deserialised from
        before p50/p99 existed) are omitted rather than emitted.
        """
        if self.summary.is_empty:
            return None
        values = {
            "count": self.summary.count,
            "min": self.summary.minimum,
            "max": self.summary.maximum,
            "mean": self.summary.mean,
            "p50": self.summary.p50,
            "p95": self.summary.p95,
            "p99": self.summary.p99,
        }
        return {
            name: value
            for name, value in values.items()
            if not (isinstance(value, float) and value != value)
        }

    # ----------------------------------------------------------- persistence

    def to_dict(self) -> dict:
        data = {
            "schema": REPORT_SCHEMA,
            "key": self.key,
            "spec": self.spec.to_dict(),
            "offered": self.offered,
            "delivered": self.delivered,
            "latencies": list(self.latencies),
            # The empty-summary sentinel serialises as null, keeping the JSON
            # strict (no NaN literals).
            "summary": None if self.summary.is_empty else dataclasses.asdict(self.summary),
            "network": self.network,
            "trace_counts": self.trace_counts,
            "sim_time": self.sim_time,
        }
        if self.perf is not None:
            data["perf"] = self.perf
        if self.rsm is not None:
            data["rsm"] = self.rsm
        if self.obs is not None:
            data["obs"] = self.obs
        return data

    def to_json(self) -> str:
        """Canonical JSON document of this report (sorted keys).

        This is the single serialised form of a report — the on-disk cache
        entry body and the worker → parent wire format — so equal runs
        always serialise byte-identically, however they were executed.
        """
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(
        cls, data: dict, spec: AbcastRunSpec | RsmRunSpec | None = None
    ) -> "RunReport":
        """Rebuild a report from its dict form.

        A caller that already holds the spec the report was run for (a
        cache hit, a pool worker's result) passes it as ``spec``: the
        report then keeps that object and its key instead of decoding a
        copy.  The caller vouches that ``data`` describes that spec.
        """
        summary = data["summary"]
        if spec is None:
            spec_data = data["spec"]
            # Reports predating the spec "kind" tag are all abcast runs.
            if "kind" in spec_data:
                spec = spec_from_dict(spec_data)
            else:
                spec = AbcastRunSpec.from_dict(spec_data)
            key = data["key"]
        else:
            key = spec.cache_key()
        return cls(
            spec=spec,
            key=key,
            offered=data["offered"],
            delivered=data["delivered"],
            latencies=tuple(data["latencies"]),
            summary=LatencySummary.empty() if summary is None else LatencySummary(**summary),
            network=_interned(data["network"]),
            trace_counts=_interned(data["trace_counts"]),
            sim_time=data["sim_time"],
            perf=data.get("perf"),
            rsm=data.get("rsm"),
            obs=data.get("obs"),
        )


def _interned(section: dict) -> dict:
    """``section`` with every dict key interned, so the many reports of a
    sweep share one copy of each message-kind and counter name."""
    return {
        sys.intern(name): _interned(value) if isinstance(value, dict) else value
        for name, value in section.items()
    }

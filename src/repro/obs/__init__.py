"""repro.obs — structured observability over the flat trace stream.

Four pillars, each its own module:

* :mod:`repro.obs.runtime` — :class:`ObsConfig` / :class:`ObsRuntime`, the
  opt-in switchboard that wires detailed tracing, the metrics sampler and
  the flight recorder into a run;
* :mod:`repro.obs.spans` — reconstructs per-consensus-instance and
  per-broadcast-message causal spans from trace records;
* :mod:`repro.obs.metrics` — counters/gauges/histograms sampled on a
  virtual-time interval, serialized as a ``repro.obs.v1`` section;
* :mod:`repro.obs.export` — JSONL and Chrome trace-event (Perfetto) export
  with send→deliver flow arrows and critical-path highlighting, plus
  first-divergence diff between two trace files;
* :mod:`repro.obs.causal` — the message-level causal DAG (built from the
  network's per-send ids), decision critical paths and fallback-cause
  attribution (which suspect/partition/nemesis op forced the extra step);
* :mod:`repro.obs.warehouse` — append-only JSONL store of deterministic
  run summaries with a latency-regression comparator;
* :mod:`repro.obs.recorder` — per-pid flight recorder: the tail of the
  trace, attached to safety-checker errors.

Everything here is opt-in: with observability off, runs schedule no extra
events and emit no extra trace kinds, so existing outputs stay
byte-identical.
"""

from repro.obs.causal import (
    CausalGraph,
    CriticalPath,
    Hop,
    annotate_spans,
    causal_summary,
    critical_path,
    critical_paths,
    fallback_cause,
)
from repro.obs.export import (
    TRACE_SCHEMA,
    diff_traces,
    export_chrome,
    export_jsonl,
    load_trace,
)
from repro.obs.metrics import MetricsRegistry, MetricsSampler, OBS_SCHEMA
from repro.obs.recorder import FlightRecorder
from repro.obs.runtime import ObsConfig, ObsRuntime
from repro.obs.spans import BroadcastSpan, ConsensusSpan, SpanBuilder, TxnSpan
from repro.obs.warehouse import (
    WAREHOUSE_SCHEMA,
    Warehouse,
    build_entry,
    compare_entries,
)

__all__ = [
    "OBS_SCHEMA",
    "TRACE_SCHEMA",
    "WAREHOUSE_SCHEMA",
    "BroadcastSpan",
    "CausalGraph",
    "ConsensusSpan",
    "CriticalPath",
    "FlightRecorder",
    "Hop",
    "MetricsRegistry",
    "MetricsSampler",
    "ObsConfig",
    "ObsRuntime",
    "SpanBuilder",
    "TxnSpan",
    "Warehouse",
    "annotate_spans",
    "build_entry",
    "causal_summary",
    "compare_entries",
    "critical_path",
    "critical_paths",
    "diff_traces",
    "export_chrome",
    "export_jsonl",
    "fallback_cause",
    "load_trace",
]

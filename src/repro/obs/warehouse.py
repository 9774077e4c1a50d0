"""Cross-run metrics warehouse: an append-only JSONL store of run summaries.

Spans and critical paths explain one run; the warehouse remembers them
across runs.  Each entry is one deterministic JSON object — spec
``cache_key``, seed, span summary (with the per-path decision-latency
percentiles), critical-path statistics from :mod:`repro.obs.causal`,
delivery-latency summary and network counters — so re-recording the same
spec and seed appends a byte-identical line.  Nothing in an entry reads the
wall clock: trend comparisons measure the *simulated* system, not the
machine that ran it.

``repro obs record`` appends entries, ``repro obs report`` tabulates a
store, and ``repro obs compare`` flags latency regressions between two
entries in the ``check_bench.py`` style: per-metric ratios against a
tolerance, exit 1 on regression.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_TOLERANCE",
    "WAREHOUSE_SCHEMA",
    "Warehouse",
    "build_entry",
    "compare_entries",
    "format_entry",
]

WAREHOUSE_SCHEMA = "repro.warehouse.v1"

#: Maximum tolerated latency growth between compared entries (a fraction:
#: 0.30 means a fresh latency up to 30% above the baseline passes).
DEFAULT_TOLERANCE = 0.30


def build_entry(
    report: Any, records: Iterable[Any], label: str | None = None
) -> dict[str, Any]:
    """Distil one observed run into a warehouse entry.

    ``report`` is the run's :class:`~repro.engine.report.RunReport`;
    ``records`` the trace records of the tracer the run was executed with
    (obs detail must have been on, or the span/causal sections will be
    empty).  The trace is folded through its exported-row form so entries
    match what offline analysis of the JSONL export would compute.
    """
    from repro.obs.causal import _ingest, _path_summary
    from repro.sim.trace import row_data

    # One pass: each record's row form feeds the span and causal sections.
    builder, graph = _ingest(
        (time, pid, kind, row_data(kind, data)) for time, pid, kind, data in records
    )
    entry: dict[str, Any] = {
        "schema": WAREHOUSE_SCHEMA,
        "key": report.key,
        "protocol": report.spec.protocol,
        "seed": report.spec.seed,
        "spec": report.spec.to_dict(),
        "offered": report.offered,
        "delivered": report.delivered,
        "latency": report.latency_summary_dict(),
        "spans": builder.summary(),
        "critical_path": _path_summary(builder, graph),
        "network": {
            name: report.network[name]
            for name in ("sent", "delivered", "dropped", "bytes_sent")
        },
        "sim_time": report.sim_time,
    }
    if report.rsm is not None:
        entry["rsm"] = {
            name: report.rsm[name]
            for name in ("ops_per_s", "latency_ms")
            if name in report.rsm
        }
    if label is not None:
        entry["label"] = label
    return entry


class Warehouse:
    """One append-only JSONL store of :data:`WAREHOUSE_SCHEMA` entries."""

    def __init__(self, path: str) -> None:
        self.path = path

    def append(self, entry: dict[str, Any]) -> int:
        """Append ``entry`` (canonical JSON, one line); returns its index."""
        if entry.get("schema") != WAREHOUSE_SCHEMA:
            raise ConfigurationError(
                f"refusing to store entry with schema {entry.get('schema')!r}"
            )
        line = json.dumps(
            entry, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        # The index is the number of entries already stored.  Counting lines
        # keeps a recording session linear; validation is load()'s job.
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                index = sum(1 for stored in fh if stored.strip())
        except FileNotFoundError:
            index = 0
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.write("\n")
        return index

    def load(self) -> list[dict[str, Any]]:
        """Every entry in append order; validates the per-line schema."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = [line for line in fh.read().splitlines() if line.strip()]
        except FileNotFoundError:
            return []
        entries = []
        for number, line in enumerate(lines):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{self.path}:{number + 1}: invalid JSON ({exc})"
                ) from None
            if not isinstance(entry, dict) or entry.get("schema") != WAREHOUSE_SCHEMA:
                raise ConfigurationError(
                    f"{self.path}:{number + 1}: not a {WAREHOUSE_SCHEMA} entry"
                )
            entries.append(entry)
        return entries

    def entry(self, index: int) -> dict[str, Any]:
        """One entry by (possibly negative) index."""
        entries = self.load()
        if not entries:
            raise ConfigurationError(f"{self.path}: empty warehouse")
        try:
            return entries[index]
        except IndexError:
            raise ConfigurationError(
                f"{self.path}: no entry {index} (have {len(entries)})"
            ) from None


def _metric(entry: dict[str, Any], path: tuple[str, ...]) -> float | None:
    """Numeric value at a nested key path, or None when absent/non-numeric."""
    node: Any = entry
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    if math.isnan(node):
        return None
    return float(node)


def _comparable_metrics(
    base: dict[str, Any], fresh: dict[str, Any]
) -> list[tuple[str, float, float]]:
    """(name, base, fresh) for every latency metric present in both entries.

    All compared metrics are latencies — larger is worse — which is what
    makes the single-direction tolerance check below correct.
    """
    paths: list[tuple[str, ...]] = [
        ("latency", "mean"),
        ("latency", "p95"),
        ("latency", "p99"),
        ("critical_path", "mean_latency"),
    ]
    span_latency = ("spans", "decision_latency")
    buckets = sorted(
        set((_metric_dict(base, span_latency) or {}))
        & set((_metric_dict(fresh, span_latency) or {}))
    )
    for bucket in buckets:
        for stat in ("mean", "p95"):
            paths.append(("spans", "decision_latency", bucket, stat))
    out = []
    for path in paths:
        base_value = _metric(base, path)
        fresh_value = _metric(fresh, path)
        if base_value is None or fresh_value is None:
            continue
        if base_value <= 0.0 and fresh_value <= 0.0:
            continue
        out.append((".".join(path), base_value, fresh_value))
    return out


def _metric_dict(entry: dict[str, Any], path: tuple[str, ...]) -> dict | None:
    node: Any = entry
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, dict) else None


def compare_entries(
    base: dict[str, Any],
    fresh: dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[list[str], list[str]]:
    """Compare two entries; returns ``(report_lines, failures)``.

    Every latency metric present in both entries must not exceed the
    baseline by more than ``tolerance`` (a fraction).  Identical entries —
    e.g. the same spec and seed recorded twice — always pass; a >=
    ``tolerance`` decision-latency regression always fails.
    """
    if not 0.0 <= tolerance < 10.0:
        raise ConfigurationError(f"tolerance {tolerance} outside [0, 10)")
    lines: list[str] = []
    failures: list[str] = []
    if base.get("key") != fresh.get("key"):
        lines.append(
            f"note: comparing different specs "
            f"({str(base.get('key'))[:12]}… vs {str(fresh.get('key'))[:12]}…)"
        )
    elif base.get("seed") != fresh.get("seed"):
        lines.append(
            f"note: same spec, seeds {base.get('seed')} vs {fresh.get('seed')}"
        )
    metrics = _comparable_metrics(base, fresh)
    if not metrics:
        failures.append("no comparable latency metrics between the two entries")
        return lines, failures
    for name, base_value, fresh_value in metrics:
        if base_value <= 0.0:
            lines.append(f"  {name}: baseline is 0 — skipped")
            continue
        ratio = fresh_value / base_value
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {fresh_value:.6g}s is {ratio - 1.0:.0%} above "
                f"baseline {base_value:.6g}s (tolerance {tolerance:.0%})"
            )
        lines.append(
            f"  {name}: {fresh_value:.6g} vs {base_value:.6g} ({ratio:.2f}x) {verdict}"
        )
    return lines, failures


def format_entry(index: int, entry: dict[str, Any]) -> str:
    """One ``repro obs report`` table row."""
    spans = entry.get("spans") or {}
    path_stats = entry.get("critical_path") or {}
    latency = entry.get("latency") or {}
    mean = latency.get("mean")
    mean_text = f"{mean * 1e3:8.3f}" if isinstance(mean, (int, float)) else "       -"
    causes = path_stats.get("causes") or {}
    cause_text = (
        ",".join(f"{kind}x{count}" for kind, count in sorted(causes.items()))
        or "-"
    )
    label = entry.get("label") or ""
    return (
        f"{index:>3}  {entry.get('protocol', '?'):<12} {entry.get('seed', '?'):>6} "
        f"{spans.get('decided', 0):>4}/{spans.get('instances', 0):<4} "
        f"{spans.get('fast_path', 0):>4} {mean_text} "
        f"{path_stats.get('paths', 0):>3} {cause_text:<16} "
        f"{str(entry.get('key', ''))[:12]} {label}"
    )

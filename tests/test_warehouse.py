"""Cross-run metrics warehouse tests (repro.obs.warehouse).

Entries are deterministic distillations of observed runs — no wall clock
anywhere — so re-recording the same spec and seed appends byte-identical
lines and identical entries always compare clean, while a real decision-
latency regression (a slower network) trips the gate.
"""

import json

import pytest

from repro.engine import AbcastRunSpec, RunContext
from repro.engine.runner import execute_run
from repro.errors import ConfigurationError
from repro.nemesis import NemesisSpec, PartitionOp
from repro.obs import (
    ObsRuntime,
    SpanBuilder,
    Warehouse,
    build_entry,
    causal_summary,
    compare_entries,
    export_jsonl,
    load_trace,
)
from repro.obs.warehouse import WAREHOUSE_SCHEMA, format_entry
from repro.sim.network import ConstantDelay


def observed_run(seed=1, delay=1e-3, rate=100.0, nemesis=None):
    """One observed run; returns ``(report, trace records)``."""
    from repro.engine import ClusterSpec

    spec = AbcastRunSpec(
        protocol="cabcast-l",
        rate=rate,
        duration=0.3,
        seed=seed,
        drain=2.0,
        cluster=ClusterSpec(delay=ConstantDelay(delay)),
        obs=True,
        nemesis=nemesis,
        require_all_delivered=nemesis is None,
    )
    obs = ObsRuntime.from_spec(spec)
    ctx = RunContext(tracer=obs.tracer, obs=obs)
    report = execute_run(spec, ctx=ctx)
    return report, obs.tracer.records


def record_run(**fields):
    """One observed run distilled into a warehouse entry."""
    return build_entry(*observed_run(**fields))


class TestBuildEntry:
    def test_entry_shape(self):
        entry = record_run()
        assert entry["schema"] == WAREHOUSE_SCHEMA
        assert entry["protocol"] == "cabcast-l" and entry["seed"] == 1
        assert entry["delivered"] > 0
        assert set(entry["latency"]) == {
            "count", "min", "max", "mean", "p50", "p95", "p99"
        }
        assert entry["spans"]["decided"] == entry["spans"]["instances"] > 0
        assert entry["critical_path"]["resolved"] == entry["critical_path"]["paths"]
        assert set(entry["network"]) == {"sent", "delivered", "dropped", "bytes_sent"}
        assert "label" not in entry

    def test_same_seed_entries_are_byte_identical(self):
        canonical = lambda entry: json.dumps(
            entry, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        assert canonical(record_run(seed=4)) == canonical(record_run(seed=4))

    def test_entry_equals_offline_analysis_of_the_jsonl_export(self, tmp_path):
        # The docstring's promise: folding live records gives what the
        # exported rows, read back off disk, would give.
        partition = NemesisSpec(
            (PartitionOp(at=0.05, duration=0.1, groups=((0,), (1, 2, 3))),)
        )
        for nemesis in (None, partition):
            report, records = observed_run(seed=2, nemesis=nemesis)
            path = tmp_path / "trace.jsonl"
            with open(path, "w", encoding="utf-8") as fh:
                export_jsonl(records, fh)
            _, rows = load_trace(str(path))
            entry = build_entry(report, records)
            assert entry["spans"] == SpanBuilder().add_rows(rows).summary()
            assert entry["critical_path"] == causal_summary(rows)
            assert entry["critical_path"]["paths"] > 0

    def test_fast_path_decision_percentiles_present(self):
        buckets = record_run()["spans"]["decision_latency"]
        assert "fast_path" in buckets
        stats = buckets["fast_path"]
        assert stats["count"] > 0
        assert stats["min"] <= stats["p50"] <= stats["p95"] <= stats["max"]


class TestWarehouseStore:
    def test_append_load_entry_round_trip(self, tmp_path):
        store = Warehouse(str(tmp_path / "wh.jsonl"))
        entry = record_run()
        assert store.append(entry) == 0
        assert store.append(entry) == 1
        assert store.load() == [entry, entry]
        assert store.entry(-1) == entry

    def test_append_index_counts_stored_lines(self, tmp_path):
        path = tmp_path / "wh.jsonl"
        store = Warehouse(str(path))
        entry = record_run()
        assert [store.append(entry) for _ in range(5)] == [0, 1, 2, 3, 4]
        path.write_text(path.read_text() + "\n  \n")  # blank lines are not entries
        assert store.append(entry) == 5
        assert len(store.load()) == 6

    def test_append_does_not_parse_the_store_but_load_still_validates(self, tmp_path):
        path = tmp_path / "wh.jsonl"
        path.write_text('{"schema": "something.else"}\n')
        store = Warehouse(str(path))
        assert store.append(record_run()) == 1
        with pytest.raises(ConfigurationError, match="wh.jsonl:1: not a"):
            store.load()
        with pytest.raises(ConfigurationError):
            store.entry(-1)

    def test_missing_file_loads_empty_and_entry_raises(self, tmp_path):
        store = Warehouse(str(tmp_path / "absent.jsonl"))
        assert store.load() == []
        with pytest.raises(ConfigurationError):
            store.entry(-1)

    def test_foreign_schema_rejected_on_append_and_load(self, tmp_path):
        path = tmp_path / "wh.jsonl"
        store = Warehouse(str(path))
        with pytest.raises(ConfigurationError):
            store.append({"schema": "something.else"})
        path.write_text('{"schema": "something.else"}\n')
        with pytest.raises(ConfigurationError):
            store.load()
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError):
            store.load()

    def test_out_of_range_index_raises(self, tmp_path):
        store = Warehouse(str(tmp_path / "wh.jsonl"))
        store.append(record_run())
        with pytest.raises(ConfigurationError):
            store.entry(5)

    def test_format_entry_renders_one_row(self):
        row = format_entry(0, record_run())
        assert "cabcast-l" in row


class TestCompare:
    def test_identical_entries_pass(self):
        entry = record_run(seed=2)
        lines, failures = compare_entries(entry, entry)
        assert not failures
        assert all("ok" in line for line in lines)

    def test_injected_latency_regression_flagged(self):
        # Same workload, 2.5x the link delay: decision latency inflates far
        # past the 30% default tolerance and the gate must say so.
        base = record_run(seed=2, delay=1e-3)
        slow = record_run(seed=2, delay=2.5e-3)
        lines, failures = compare_entries(base, slow)
        assert failures
        assert any(failure.startswith("latency.mean") for failure in failures)
        assert any("critical_path.mean_latency" in failure for failure in failures)
        assert any(line.startswith("note: comparing different specs") for line in lines)

    def test_tolerance_widens_the_gate(self):
        base = record_run(seed=2, delay=1e-3)
        slow = record_run(seed=2, delay=2.5e-3)
        _, failures = compare_entries(base, slow, tolerance=9.0)
        assert not failures

    def test_improvement_never_fails(self):
        slow = record_run(seed=2, delay=2.5e-3)
        fast = record_run(seed=2, delay=1e-3)
        _, failures = compare_entries(slow, fast)
        assert not failures

    def test_invalid_tolerance_rejected(self):
        entry = record_run(seed=2)
        with pytest.raises(ConfigurationError):
            compare_entries(entry, entry, tolerance=-0.1)

    def test_entries_without_common_metrics_fail_loudly(self):
        entry = record_run(seed=2)
        bare = {"schema": WAREHOUSE_SCHEMA, "key": "x", "seed": 0}
        _, failures = compare_entries(entry, bare)
        assert failures == ["no comparable latency metrics between the two entries"]


class TestCheckWarehouseGate:
    def test_execute_run_rejects_ctx_for_rsm_specs(self):
        from repro.engine import RsmRunSpec

        spec = RsmRunSpec(protocol="cabcast-l", rate=50.0, duration=0.2, clients=2)
        with pytest.raises(ConfigurationError):
            execute_run(spec, ctx=RunContext(tracer=None, obs=None))

"""Tests for repro.obs: spans, metrics, export/diff, flight recorder, wiring."""

import dataclasses
import io
import json

import pytest

from repro.engine import RunContext
from repro.engine.runner import (
    execute_run,
    run_abcast_spec,
    run_consensus_spec,
)
from repro.engine.spec import PAPER_LAN, AbcastRunSpec, ConsensusRunSpec, RsmRunSpec
from repro.errors import AgreementViolation, ConfigurationError
from repro.harness import run_consensus
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    MetricsSampler,
    ObsConfig,
    ObsRuntime,
    SpanBuilder,
    diff_traces,
    export_chrome,
    export_jsonl,
    load_trace,
)
from repro.obs.export import record_rows
from repro.sim.trace import KINDS, ROW_KINDS, CountingTracer, Tracer, describe_value


def observed_abcast(seed=1, **overrides):
    """One small obs-on abcast run; returns (spec, ObsRuntime)."""
    fields = dict(
        protocol="cabcast-l",
        rate=100.0,
        duration=0.3,
        n=4,
        seed=seed,
        drain=1.5,
        obs=True,
    )
    fields.update(overrides)
    spec = AbcastRunSpec(**fields)
    obs = ObsRuntime.from_spec(spec)
    run_abcast_spec(spec, tracer=obs.tracer, obs=obs)
    return spec, obs


class TestCanonicalKinds:
    def test_abcast_run_emits_only_canonical_kinds(self):
        _, obs = observed_abcast()
        assert obs.tracer.kinds() <= KINDS.ALL
        # The detailed kinds actually fire, not just the always-on trio.
        assert KINDS.PROPOSE in obs.tracer.kinds()
        assert KINDS.ROUND_START in obs.tracer.kinds()
        assert KINDS.MSG_SEND in obs.tracer.kinds()

    def test_crash_run_emits_fd_kinds(self):
        _, obs = observed_abcast(
            crash_at=((0, 0.1),), require_all_delivered=False
        )
        assert obs.tracer.kinds() <= KINDS.ALL
        assert KINDS.SUSPECT in obs.tracer.kinds()
        assert KINDS.LEADER_CHANGE in obs.tracer.kinds()

    def test_rsm_run_emits_only_canonical_kinds(self):
        spec = RsmRunSpec(
            protocol="cabcast-l",
            rate=100.0,
            duration=0.3,
            n=3,
            clients=2,
            seed=0,
            obs=True,
        )
        report = execute_run(spec)
        assert set(report.trace_counts) <= KINDS.ALL
        assert KINDS.RSM_APPLY in report.trace_counts

    def test_obs_off_run_emits_only_the_classic_trio(self):
        spec = AbcastRunSpec(
            protocol="cabcast-l", rate=100.0, duration=0.3, n=4, seed=1, drain=1.5
        )
        tracer = Tracer()
        run_abcast_spec(spec, tracer=tracer)
        assert tracer.kinds() <= {KINDS.A_BROADCAST, KINDS.A_DELIVER, KINDS.DECIDE}


class TestConsensusSpans:
    def test_stable_lconsensus_equal_proposals_is_one_step_fast_path(self):
        spec = ConsensusRunSpec(
            protocol="l-consensus", proposals=("v", "v", "v", "v"), seed=0, obs=True
        )
        obs = ObsRuntime.from_spec(spec)
        run_consensus_spec(spec, tracer=obs.tracer, obs=obs)
        summary = SpanBuilder().add_records(obs.tracer.records).summary()
        assert summary["instances"] == 4
        assert summary["decided"] == 4
        assert summary["fast_path"] == 4
        assert summary["steps_histogram"] == {"1": 4}
        assert summary["max_round"] == 1

    def test_split_proposals_take_the_two_step_fallback(self):
        spec = ConsensusRunSpec(
            protocol="l-consensus", proposals=("a", "b", "c", "d"), seed=0, obs=True
        )
        obs = ObsRuntime.from_spec(spec)
        run_consensus_spec(spec, tracer=obs.tracer, obs=obs)
        summary = SpanBuilder().add_records(obs.tracer.records).summary()
        assert summary["decided"] == 4
        assert summary["fast_path"] == 0
        assert set(summary["steps_histogram"]) == {"2"}

    def test_leader_crash_run_shows_higher_rounds(self):
        spec = ConsensusRunSpec(
            protocol="l-consensus",
            proposals=("a", "b", "c", "d"),
            seed=3,
            crash_at=((0, 0.0),),
            horizon=30.0,
            obs=True,
        )
        obs = ObsRuntime.from_spec(spec)
        run_consensus_spec(spec, tracer=obs.tracer, obs=obs)
        summary = SpanBuilder().add_records(obs.tracer.records).summary()
        assert summary["decided"] >= 3
        assert summary["max_round"] >= 2

    def test_spans_from_rows_match_spans_from_records(self):
        _, obs = observed_abcast()
        live = SpanBuilder().add_records(obs.tracer.records)
        replayed = SpanBuilder().add_rows(
            [json.loads(json.dumps(row)) for row in record_rows(obs.tracer.records)]
        )
        assert live.summary() == replayed.summary()
        assert [s.to_dict() for s in live.consensus_spans()] == [
            s.to_dict() for s in replayed.consensus_spans()
        ]

    def test_summary_buckets_decision_latency_per_via(self):
        # Satellite contract: the span summary speaks the same percentile
        # vocabulary as MetricsRegistry histograms, bucketed by decision
        # path (fast-path vs fallback).
        spec = ConsensusRunSpec(
            protocol="l-consensus", proposals=("a", "b", "c", "d"), seed=0, obs=True
        )
        obs = ObsRuntime.from_spec(spec)
        run_consensus_spec(spec, tracer=obs.tracer, obs=obs)
        buckets = SpanBuilder().add_records(obs.tracer.records).summary()[
            "decision_latency"
        ]
        assert set(buckets) == {"fallback"}
        stats = buckets["fallback"]
        assert set(stats) == {"count", "min", "max", "mean", "p50", "p95", "p99"}
        assert stats["count"] == 4
        assert 0 < stats["min"] <= stats["p50"] <= stats["p95"] <= stats["p99"]
        assert stats["p99"] <= stats["max"]

    def test_report_latency_summary_shares_the_vocabulary(self):
        from repro.engine.runner import execute_run

        spec = AbcastRunSpec(
            protocol="cabcast-l", rate=100.0, duration=0.3, seed=1, drain=2.0
        )
        report = execute_run(spec)
        summary = report.latency_summary_dict()
        assert set(summary) == {"count", "min", "max", "mean", "p50", "p95", "p99"}
        assert summary["count"] == report.summary.count
        assert summary["p95"] == report.summary.p95

    def test_phase_breakdown_covers_propose_to_decide(self):
        spec = ConsensusRunSpec(
            protocol="l-consensus", proposals=("v", "v", "v", "v"), seed=0, obs=True
        )
        obs = ObsRuntime.from_spec(spec)
        run_consensus_spec(spec, tracer=obs.tracer, obs=obs)
        for span in SpanBuilder().add_records(obs.tracer.records).consensus_spans():
            assert span.propose_at is not None
            phases = span.phase_breakdown()
            assert phases, "decided span must have at least one round entry"
            assert phases[-1]["start"] + phases[-1]["duration"] == span.decided_at

    def test_builder_dispatches_each_span_kind_and_skips_the_rest(self):
        rows = [
            [0.0, 1, "a-broadcast", [1, 7]],
            [0.1, 1, "propose", {"value": "v", "instance": [0, 1]}],
            [0.1, 1, "round-start", {"round": 1, "instance": [0, 1], "phase": "vote"}],
            [0.2, 1, "msg-send", {"dst": 2, "kind": "M", "channel": "c", "id": 0}],
            [0.3, 2, "msg-deliver", {"src": 1, "kind": "M", "channel": "c", "id": 0}],
            [0.4, 1, "round-end",
             {"outcome": "decided", "steps": 1, "via": "round", "value": "v",
              "instance": [0, 1]}],
            [0.4, 1, "decide", {"value": "v", "steps": 1, "via": "round"}],
            [0.5, 2, "a-deliver", [1, 7]],
            [0.6, 0, "txn-begin", {"txid": "t1", "shards": [0, 1]}],
            [0.7, 0, "txn-vote", {"txid": "t1", "shard": 1, "vote": "yes"}],
            [0.8, 0, "txn-decide", {"txid": "t1", "decision": "commit"}],
            [0.9, 0, "txn-end", {"txid": "t1", "decision": "commit"}],
            [1.0, -1, "made-up-kind", None],
        ]
        builder = SpanBuilder().add_rows(rows)
        (consensus,) = builder.consensus_spans()
        assert consensus.instance == (0, 1) and consensus.fast_path
        assert consensus.rounds == [(1, "vote", 0.1)]
        assert consensus.decision_latency == pytest.approx(0.3)
        (broadcast,) = builder.broadcast_spans()
        assert (broadcast.origin, broadcast.sent_at) == (1, 0.0)
        assert broadcast.deliveries == {2: 0.5}
        (txn,) = builder.txn_spans()
        assert txn.to_dict() == {
            "txid": "t1",
            "coordinator_pid": 0,
            "begin_at": 0.6,
            "shards": [0, 1],
            "votes": {"1": "yes"},
            "decision": "commit",
            "decided_at": 0.8,
            "end_at": 0.9,
            "duration": pytest.approx(0.3),
        }
        assert txn.vote_at == {1: 0.7}


class TestExport:
    def test_jsonl_export_is_byte_identical_across_same_seed_runs(self):
        outputs = []
        for _ in range(2):
            spec, obs = observed_abcast(seed=7)
            buffer = io.StringIO()
            export_jsonl(obs.tracer.records, buffer, spec=spec.to_dict())
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1]

    def test_chrome_export_is_byte_identical_and_structured(self):
        outputs = []
        for _ in range(2):
            spec, obs = observed_abcast(seed=7)
            buffer = io.StringIO()
            export_chrome(obs.tracer.records, buffer, spec=spec.to_dict())
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1]
        document = json.loads(outputs[0])
        assert document["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in document["traceEvents"]}
        assert {"M", "i", "X"} <= phases

    def test_jsonl_round_trip(self, tmp_path):
        spec, obs = observed_abcast()
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            count = export_jsonl(obs.tracer.records, fh, spec=spec.to_dict())
        header, rows = load_trace(str(path))
        assert header["records"] == count == len(rows)
        assert header["spec"]["protocol"] == "cabcast-l"
        assert rows == record_rows(obs.tracer.records)

    def test_load_trace_rejects_non_trace_files(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"schema":"other"}\n')
        with pytest.raises(ConfigurationError):
            load_trace(str(path))


class TestDiff:
    def test_identical_traces_have_no_divergence(self):
        _, obs = observed_abcast()
        rows = record_rows(obs.tracer.records)
        assert diff_traces(rows, [list(r) for r in rows]) is None

    def test_first_divergent_record_is_reported(self):
        _, obs = observed_abcast()
        rows = record_rows(obs.tracer.records)
        mutated = [list(r) for r in rows]
        mutated[5][1] = 99  # perturb the pid of record 5
        index, left, right = diff_traces(rows, mutated)
        assert index == 5
        assert left[1] != 99 and right[1] == 99
        # (index, time, pid, kind) of the divergence are all available.
        assert left[0] == right[0] and left[2] == right[2]

    def test_prefix_trace_reports_the_missing_side(self):
        _, obs = observed_abcast()
        rows = record_rows(obs.tracer.records)
        index, left, right = diff_traces(rows, rows[:-1])
        assert index == len(rows) - 1
        assert left == rows[-1] and right is None


class TestMetrics:
    def test_registry_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("decisions")
        registry.counter("decisions", 2.0)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("lat", value)
        data = registry.to_dict()
        assert data["counters"] == {"decisions": 3.0}
        histogram = data["histograms"]["lat"]
        assert histogram["count"] == 4
        assert histogram["min"] == 1.0 and histogram["max"] == 4.0
        assert histogram["p50"] == 2.5

    def test_sampler_rejects_non_positive_interval(self):
        with pytest.raises(ConfigurationError):
            MetricsSampler(MetricsRegistry(), 0.0)

    def test_obs_section_is_deterministic_across_same_seed_runs(self):
        sections = []
        for _ in range(2):
            spec = AbcastRunSpec(
                protocol="cabcast-l",
                rate=100.0,
                duration=0.3,
                n=4,
                seed=5,
                drain=1.5,
                obs=True,
                obs_metrics_interval=0.05,
            )
            report = execute_run(spec)
            sections.append(json.dumps(report.obs, sort_keys=True))
        assert sections[0] == sections[1]
        section = json.loads(sections[0])
        assert section["schema"] == "repro.obs.v1"
        assert section["gauges"] == [
            "fd.suspected",
            "kernel.pending",
            "net.bytes_sent",
            "net.in_flight",
        ]
        # One row per tick, [time, *gauge readings] each.
        assert all(len(row) == 5 for row in section["samples"])

    def test_metrics_off_leaves_the_report_without_an_obs_section(self):
        spec = AbcastRunSpec(
            protocol="cabcast-l", rate=100.0, duration=0.3, n=4, seed=5, drain=1.5
        )
        report = execute_run(spec)
        assert report.obs is None
        assert "obs" not in report.to_dict()


class TestSpecCompat:
    def test_obs_fields_are_omitted_from_default_spec_dicts(self):
        spec = AbcastRunSpec(
            protocol="cabcast-l", rate=100.0, duration=0.3, n=4, seed=5
        )
        data = spec.to_dict()
        assert "obs" not in data
        assert "obs_metrics_interval" not in data
        assert "obs_flight_recorder" not in data

    def test_obs_fields_round_trip_and_change_the_cache_key(self):
        plain = AbcastRunSpec(
            protocol="cabcast-l", rate=100.0, duration=0.3, n=4, seed=5
        )
        observed = AbcastRunSpec(
            protocol="cabcast-l",
            rate=100.0,
            duration=0.3,
            n=4,
            seed=5,
            obs=True,
            obs_metrics_interval=0.05,
            obs_flight_recorder=64,
        )
        assert observed.cache_key() != plain.cache_key()
        round_tripped = AbcastRunSpec.from_dict(observed.to_dict())
        assert round_tripped == observed
        assert AbcastRunSpec.from_dict(plain.to_dict()) == plain

    def test_negative_obs_knobs_are_rejected(self):
        with pytest.raises(ConfigurationError):
            AbcastRunSpec(
                protocol="cabcast-l",
                rate=100.0,
                duration=0.3,
                n=4,
                obs_metrics_interval=-1.0,
            )
        with pytest.raises(ConfigurationError):
            RsmRunSpec(
                protocol="cabcast-l",
                rate=100.0,
                duration=0.3,
                n=3,
                clients=2,
                obs_flight_recorder=-1,
            )


class TestFlightRecorder:
    def test_ring_buffer_is_bounded_per_pid(self):
        tracer = Tracer()
        recorder = FlightRecorder(tracer, capacity=3)
        for i in range(10):
            tracer.emit(float(i), 0, "evt", i)
        tracer.emit(99.0, 1, "evt", "other")
        dump = recorder.dump()
        assert [row[3] for row in dump[0]] == [7, 8, 9]
        assert len(dump[1]) == 1

    def test_records_before_the_recorder_are_not_dumped(self):
        tracer = Tracer()
        tracer.emit(0.5, 0, "evt", "before")
        recorder = FlightRecorder(tracer, capacity=4)
        tracer.emit(1.0, 0, "evt", "after")
        assert [row[3] for row in recorder.dump()[0]] == ["after"]

    def test_a_counting_tracer_is_rejected(self):
        # A CountingTracer stores no records, so the recorder would dump
        # nothing, silently.
        with pytest.raises(ConfigurationError, match="CountingTracer"):
            FlightRecorder(CountingTracer(), capacity=4)
        with pytest.raises(ConfigurationError):
            ObsRuntime(ObsConfig(flight_recorder=8), tracer=CountingTracer())

    def test_close_detaches_from_the_tracer(self):
        tracer = Tracer()
        recorder = FlightRecorder(tracer, capacity=4)
        tracer.emit(1.0, 0, "evt")
        recorder.close()
        tracer.emit(2.0, 0, "evt")
        assert len(recorder.dump()[0]) == 1

    def test_violated_checker_ships_the_black_box(self):
        from repro.core import PConsensus

        class SelfishConsensus(PConsensus):
            """Sabotage: decides its own proposal immediately."""

            def _start(self, value):
                self._decide(value, steps=0)

        def make(pid, env, oracle, host):
            return SelfishConsensus(env, oracle.suspect(pid))

        obs = ObsRuntime(ObsConfig(detail=True, flight_recorder=32))
        with pytest.raises(AgreementViolation) as excinfo:
            run_consensus(make, {0: "a", 1: "b", 2: "c", 3: "d"}, seed=1, obs=obs)
        dump = excinfo.value.flight_record
        assert set(dump) == {0, 1, 2, 3}
        violating_kinds = {row[2] for rows in dump.values() for row in rows}
        assert KINDS.DECIDE in violating_kinds


class TestObsRuntime:
    def test_default_runtime_collects_nothing_extra(self):
        runtime = ObsRuntime(ObsConfig(detail=False))
        assert runtime.registry is None
        assert runtime.recorder is None
        assert runtime.section() is None

    def test_attach_failure_without_recorder_is_a_noop(self):
        runtime = ObsRuntime(ObsConfig(detail=True))
        err = AgreementViolation("boom")
        assert runtime.attach_failure(err) is err
        assert not hasattr(err, "flight_record")

    def test_from_spec_mirrors_the_spec_knobs(self):
        spec = AbcastRunSpec(
            protocol="cabcast-l",
            rate=100.0,
            duration=0.3,
            n=4,
            obs=True,
            obs_metrics_interval=0.1,
            obs_flight_recorder=16,
        )
        runtime = ObsRuntime.from_spec(spec)
        assert runtime.detail is True
        assert runtime.registry is not None
        assert runtime.recorder is not None
        assert runtime.config == ObsConfig(
            detail=True, metrics_interval=0.1, flight_recorder=16
        )


def _perturbation_specs():
    """Same-seed specs run with obs on and off by TestPerturbation."""
    return [
        pytest.param(
            AbcastRunSpec(
                "cabcast-l",
                rate=300,
                duration=0.4,
                seed=3,
                drain=1.0,
                cluster=PAPER_LAN,
                obs=True,
                obs_metrics_interval=0.05,
                obs_flight_recorder=256,
            ),
            id="abcast-obs-explain-shape",
        ),
        pytest.param(
            AbcastRunSpec("wabcast", rate=200, duration=0.4, seed=4, drain=1.0, obs=True),
            id="wabcast",
        ),
        pytest.param(
            RsmRunSpec(
                "cabcast-l",
                rate=200.0,
                duration=1.0,
                clients=4,
                seed=5,
                crash_at=((1, 0.3),),
                recover_after=0.25,
                obs=True,
                obs_metrics_interval=0.1,
                obs_flight_recorder=64,
            ),
            id="rsm-crash-recovery",
        ),
    ]


class TestPerturbation:
    """Observing a run reads simulation state and never changes it."""

    @pytest.mark.parametrize("observed", _perturbation_specs())
    def test_report_is_the_same_with_obs_on_and_off(self, observed):
        plain = dataclasses.replace(
            observed, obs=False, obs_metrics_interval=0.0, obs_flight_recorder=0
        )
        on = json.loads(execute_run(observed).to_json())
        off = json.loads(execute_run(plain).to_json())
        # The spec (hence key) names the obs knobs, the obs section exists
        # only when observed, and the detailed kinds add trace counts.
        for name in ("key", "spec", "obs", "trace_counts"):
            on.pop(name, None)
            off.pop(name, None)
        assert on == off
        if isinstance(observed, RsmRunSpec):
            assert on["rsm"]["recovery"]["1"]["digest_match"] is True


class TestRowKinds:
    """Readers take ROW_KINDS data as it is, so it must already be a row."""

    @pytest.mark.parametrize(
        "spec",
        [
            AbcastRunSpec("cabcast-l", rate=150, duration=0.3, seed=2, drain=1.0, obs=True),
            RsmRunSpec(
                "cabcast-l", rate=150.0, duration=0.6, clients=4, seed=6,
                crash_at=((2, 0.2),), obs=True,
            ),
        ],
        ids=["abcast", "rsm"],
    )
    def test_row_kind_data_is_flat_and_already_described(self, spec):
        runtime = ObsRuntime.from_spec(spec)
        execute_run(spec, ctx=RunContext(obs=runtime))
        rows = [r for r in runtime.tracer.records if r.kind in ROW_KINDS]
        assert {r.kind for r in rows} == ROW_KINDS
        scalars = (type(None), bool, int, float, str)
        for r in rows:
            assert type(r.data) is dict, r
            for key, value in r.data.items():
                assert type(key) is str and type(value) in scalars, r
            assert describe_value(r.data) == r.data

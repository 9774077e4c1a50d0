"""Causal message-flow graph and decision critical-path tests.

The tentpole contract: every observed delivery names its originating send
(the network's per-send sequence number), the critical path of a decision
is the latest-arrival chain from propose to decide, and a fallback decision
names the trace record — and, when a nemesis schedule is attached, the
*scheduled op* — that forced the extra step.  All of it read-only: same
seed, same trace bytes, with or without the analysis, batched or not.
"""

import hashlib
import io
import json

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.lconsensus import LConsensus
from repro.engine import AbcastRunSpec
from repro.engine.runner import run_abcast_spec
from repro.harness.consensus_runner import (
    derive_omega,
    heartbeat_fd_factory,
    run_consensus,
)
from repro.nemesis import NemesisSpec, PartitionOp
from repro.obs import (
    CausalGraph,
    ObsRuntime,
    SpanBuilder,
    annotate_spans,
    causal_summary,
    critical_path,
    critical_paths,
    export_chrome,
    export_jsonl,
)
from repro.sim.trace import KINDS, Tracer, describe_value


def observed_abcast(seed=1, nemesis=None, batch=True):
    """One obs-on abcast run; returns (spec, ObsRuntime with the records)."""
    spec = AbcastRunSpec(
        protocol="cabcast-l",
        rate=100.0,
        duration=0.3,
        seed=seed,
        drain=2.0,
        obs=True,
        batch=batch,
        nemesis=nemesis,
        require_all_delivered=nemesis is None,
    )
    obs = ObsRuntime.from_spec(spec)
    run_abcast_spec(spec, tracer=obs.tracer, obs=obs)
    return spec, obs


def export_bytes(records, spec, writer=export_jsonl):
    out = io.StringIO()
    writer(records, out, spec=spec.to_dict())
    return out.getvalue()


PARTITION = NemesisSpec(
    (PartitionOp(at=0.05, duration=0.1, groups=((0,), (1, 2, 3))),)
)


def leader_partition_run(seed=21):
    """L-Consensus n=4, equal proposals, leader p0 cut off from the start.

    The heartbeat detector genuinely suspects the unreachable leader, Ω
    moves, and the line-3 escape sends p1-3 to round 2 — a two-step decide
    whose root cause is the scheduled partition.
    """
    obs = ObsRuntime()
    nemesis = NemesisSpec(
        (PartitionOp(at=0.0, duration=0.5, groups=((1, 2, 3), (0,))),)
    )
    result = run_consensus(
        lambda pid, env, oracle, host: LConsensus(env, derive_omega(host)),
        {p: "v" for p in range(4)},
        seed=seed,
        fd_factory=heartbeat_fd_factory(period=2e-3, initial_timeout=8e-3),
        nemesis=nemesis,
        horizon=5.0,
        require_all_alive_decide=False,
        obs=obs,
    )
    return result, obs


class TestCausalGraph:
    def test_records_and_rows_build_identical_graphs(self):
        spec, obs = observed_abcast()
        from_records = CausalGraph.from_records(obs.tracer.records)
        header, rows = load_trace_string(export_bytes(obs.tracer.records, spec))
        from_rows = CausalGraph.from_rows(rows)
        assert from_records.sends == from_rows.sends
        assert from_records.delivers == from_rows.delivers
        assert from_records.flows() == from_rows.flows()

    def test_every_delivery_names_a_live_send(self):
        _, obs = observed_abcast()
        graph = CausalGraph.from_records(obs.tracer.records)
        assert graph.delivers, "obs run produced no causal edges"
        assert not graph.orphan_delivers
        for msg_id, deliver in graph.delivers.items():
            send = graph.sends[msg_id]
            assert send.dst == deliver.dst
            assert send.src == deliver.src
            assert send.time <= deliver.time

    def test_msg_ids_deterministic_across_same_seed_runs(self):
        _, first = observed_abcast(seed=3)
        _, second = observed_abcast(seed=3)
        assert (
            CausalGraph.from_records(first.tracer.records).flows()
            == CausalGraph.from_records(second.tracer.records).flows()
        )

    def test_partition_drops_count_as_unmatched_sends(self):
        _, clean = observed_abcast(seed=2)
        _, cut = observed_abcast(seed=2, nemesis=PARTITION)
        assert CausalGraph.from_records(clean.tracer.records).unmatched_sends == 0
        assert CausalGraph.from_records(cut.tracer.records).unmatched_sends > 0


def load_trace_string(text):
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    return lines[0], lines[1:]


class TestCriticalPath:
    def test_gating_hop_ends_at_decider_and_chain_is_causal(self):
        _, obs = observed_abcast()
        builder = SpanBuilder().add_records(obs.tracer.records)
        graph = CausalGraph.from_records(obs.tracer.records)
        paths = critical_paths(builder, graph)
        decided = [s for s in builder.consensus_spans() if s.decided]
        assert len(paths) == len(decided) > 0
        for path in paths:
            assert path.hops, "decided instance with unresolvable path"
            gating = path.gating
            assert gating.dst == path.pid
            assert gating.delivered_at <= path.decided_at
            for earlier, later in zip(path.hops, path.hops[1:]):
                assert earlier.dst == later.src
                assert earlier.delivered_at <= later.sent_at
            assert path.network_time <= path.decided_at - path.hops[0].sent_at

    def test_undecided_span_yields_no_path(self):
        result, obs = leader_partition_run()
        builder = SpanBuilder().add_records(obs.tracer.records)
        graph = CausalGraph.from_records(obs.tracer.records)
        (stalled,) = [s for s in builder.consensus_spans() if s.pid == 0]
        assert not stalled.decided
        assert critical_path(stalled, graph) is None

    def test_partition_during_voting_window_names_partition_op(self):
        # The acceptance pin: the partitioned leader forces a two-step
        # decide and the critical path names the partition op as cause.
        result, obs = leader_partition_run()
        assert {p: v for p, v in result.decisions.items()} == {
            1: "v", 2: "v", 3: "v"
        }
        builder = SpanBuilder().add_records(obs.tracer.records)
        graph = CausalGraph.from_records(obs.tracer.records)
        paths = critical_paths(builder, graph)
        assert [p.pid for p in paths] == [1, 2, 3]
        for path in paths:
            assert path.steps == 2 and path.via == "round"
            cause = path.cause
            # Proximate trigger: this process's own suspicion of p0 ...
            assert cause["kind"] == "suspect"
            assert cause["pid"] == path.pid
            assert cause["data"] == {"suspect": 0}
            # ... attributed to the scheduled partition window.
            assert cause["op"]["op"] == "partition"
            assert cause["op"]["groups"] == [[1, 2, 3], [0]]
            assert cause["op_index"] == 0

    def test_annotate_spans_attaches_cause_only_to_fallback_decisions(self):
        _, obs = leader_partition_run()
        builder = SpanBuilder().add_records(obs.tracer.records)
        graph = CausalGraph.from_records(obs.tracer.records)
        annotate_spans(builder, graph)
        for span in builder.consensus_spans():
            if span.decided and span.steps > 1:
                assert span.fallback_cause["op"]["op"] == "partition"
                assert span.to_dict()["fallback_cause"] == span.fallback_cause
            else:
                assert span.fallback_cause is None
                assert "fallback_cause" not in span.to_dict()

    def test_fast_path_spans_never_annotated(self):
        _, obs = observed_abcast()
        builder = SpanBuilder().add_records(obs.tracer.records)
        annotate_spans(builder, CausalGraph.from_records(obs.tracer.records))
        assert all(
            "fallback_cause" not in span.to_dict()
            for span in builder.consensus_spans()
            if span.fast_path
        )


class TestCausalSummary:
    def test_summary_aggregates_paths_and_causes(self):
        _, obs = leader_partition_run()
        spec = AbcastRunSpec(protocol="cabcast-l", rate=1.0, duration=0.1)
        _, rows = load_trace_string(export_bytes(obs.tracer.records, spec))
        summary = causal_summary(rows)
        assert summary["paths"] == summary["resolved"] == 3
        assert summary["causes"] == {"op:partition": 3}
        assert summary["max_hops"] >= 2
        assert summary["mean_latency"] > 0
        assert summary["mean_network_time"] > 0
        assert summary["orphan_delivers"] == 0

    def test_clean_run_has_no_causes(self):
        spec, obs = observed_abcast()
        _, rows = load_trace_string(export_bytes(obs.tracer.records, spec))
        summary = causal_summary(rows)
        assert summary["paths"] == summary["resolved"] > 0
        assert summary["causes"] == {}
        assert summary["unmatched_sends"] == 0


class TestByteIdentity:
    """Causal obs composed with nemesis stays deterministic and read-only."""

    def test_same_seed_nemesis_exports_identical(self):
        runs = [observed_abcast(seed=5, nemesis=PARTITION) for _ in range(2)]
        jsonl = [export_bytes(obs.tracer.records, spec) for spec, obs in runs]
        chrome = [
            export_bytes(obs.tracer.records, spec, writer=export_chrome)
            for spec, obs in runs
        ]
        assert jsonl[0] == jsonl[1]
        assert chrome[0] == chrome[1]

    def test_batched_and_sequential_kernels_export_identically(self):
        # Headers differ (the spec records its batch flag); every trace row
        # — msg ids included — must not.
        spec_b, batched = observed_abcast(seed=6, nemesis=PARTITION, batch=True)
        spec_s, sequential = observed_abcast(seed=6, nemesis=PARTITION, batch=False)
        rows = lambda obs, spec: export_bytes(
            obs.tracer.records, spec
        ).splitlines()[1:]
        assert rows(batched, spec_b) == rows(sequential, spec_s)

    def test_consensus_same_seed_spans_and_paths_identical(self):
        first = leader_partition_run()
        second = leader_partition_run()
        to_dicts = lambda obs: [
            span.to_dict()
            for span in SpanBuilder().add_records(obs.tracer.records).consensus_spans()
        ]
        assert to_dicts(first[1]) == to_dicts(second[1])
        paths = lambda obs: [
            p.to_dict()
            for p in critical_paths(
                SpanBuilder().add_records(obs.tracer.records),
                CausalGraph.from_records(obs.tracer.records),
            )
        ]
        assert paths(first[1]) == paths(second[1])


class TestChromeFlowEvents:
    def test_flow_pairs_and_critical_path_slices_emitted(self):
        spec, obs = observed_abcast(seed=1, nemesis=PARTITION)
        document = json.loads(
            export_bytes(obs.tracer.records, spec, writer=export_chrome)
        )
        events = document["traceEvents"]
        starts = [e for e in events if e.get("ph") == "s"]
        finishes = [e for e in events if e.get("ph") == "f"]
        assert starts and len(starts) == len(finishes)
        assert {e["cat"] for e in starts} == {"msg"}
        assert all(e.get("bp") == "e" for e in finishes)
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        slices = [
            e for e in events
            if e.get("ph") == "X" and str(e.get("name", "")).startswith("critical-path")
        ]
        assert slices
        for entry in slices:
            assert {"hops", "steps", "via", "network_time_us"} <= set(entry["args"])

    def test_trace_without_msg_ids_emits_no_flow_events(self):
        # Pre-causal exports (or hand-built records) degrade gracefully.
        spec, obs = observed_abcast(seed=1)
        stripped = []
        for time, pid, kind, data in (
            json.loads(line)
            for line in export_bytes(obs.tracer.records, spec).splitlines()[1:]
        ):
            if isinstance(data, dict):
                data = {k: v for k, v in data.items() if k != "id"}
            stripped.append([time, pid, kind, data])
        document = json.loads(rows_to_chrome_string(stripped, spec))
        events = document["traceEvents"]
        assert not [e for e in events if e.get("ph") in ("s", "f")]
        assert not [
            e for e in events
            if e.get("ph") == "X" and str(e.get("name", "")).startswith("critical-path")
        ]


def rows_to_chrome_string(rows, spec):
    """Chrome-export rows that came back off disk (id-less legacy traces)."""
    from repro.sim.trace import TraceRecord

    records = [TraceRecord(time, pid, kind, data) for time, pid, kind, data in rows]
    out = io.StringIO()
    export_chrome(records, out, spec=spec.to_dict())
    return out.getvalue()


def reference_chrome(records):
    """The Chrome export as one ``json.dumps`` of one in-memory document.

    An independent encoding kept here as the reference: the event list is
    built whole, from separately ingested spans and graph, and serialised in
    one call — everything the streamed exporter avoids doing.
    """
    records = list(records)
    events = []
    for pid in sorted({r.pid for r in records}):
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": pid,
                "name": "thread_name",
                "args": {"name": f"p{pid}" if pid >= 0 else "system"},
            }
        )
    for r in records:
        events.append(
            {
                "ph": "i",
                "s": "t",
                "pid": 0,
                "tid": r.pid,
                "ts": r.time * 1e6,
                "name": r.kind,
                "args": {"data": describe_value(r.data)},
            }
        )
    builder = SpanBuilder().add_records(records)
    for span in builder.consensus_spans():
        if span.propose_at is None or span.decided_at is None:
            continue
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": span.pid,
                "ts": span.propose_at * 1e6,
                "dur": (span.decided_at - span.propose_at) * 1e6,
                "name": (
                    "consensus"
                    if span.instance is None
                    else f"consensus[{span.instance}]"
                ),
                "args": {
                    "steps": span.steps,
                    "via": span.via,
                    "value": describe_value(span.decided_value),
                },
            }
        )
    graph = CausalGraph.from_records(records)
    for send, deliver in graph.flows():
        flow = {"cat": "msg", "id": send.id, "name": send.kind, "pid": 0}
        events.append({**flow, "ph": "s", "tid": send.src, "ts": send.time * 1e6})
        events.append(
            {**flow, "ph": "f", "bp": "e", "tid": deliver.dst, "ts": deliver.time * 1e6}
        )
    for path in critical_paths(builder, graph):
        if path.propose_at is None or not path.hops:
            continue
        args = {
            "hops": len(path.hops),
            "network_time_us": path.network_time * 1e6,
            "steps": path.steps,
            "via": path.via,
        }
        if path.cause is not None:
            args["cause"] = path.cause
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": path.pid,
                "ts": path.propose_at * 1e6,
                "dur": (path.decided_at - path.propose_at) * 1e6,
                "name": (
                    "critical-path"
                    if path.instance is None
                    else f"critical-path[{path.instance}]"
                ),
                "cname": "terrible" if path.cause is not None else "good",
                "args": args,
            }
        )
        for hop in path.hops:
            events.append(
                {
                    "ph": "X",
                    "pid": 0,
                    "tid": hop.dst,
                    "ts": hop.sent_at * 1e6,
                    "dur": hop.flight_time * 1e6,
                    "name": f"cp:{hop.kind}",
                    "cat": "critical-path",
                    "args": {"msg_id": hop.msg_id, "src": hop.src},
                }
            )
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def streamed_chrome(records):
    out = io.StringIO()
    assert export_chrome(records, out) == len(records)
    return out.getvalue()


class TestChromeGoldenBytes:
    """The streamed, chunk-encoded export is byte-for-byte the one-shot
    ``json.dumps`` of the same document."""

    def test_observed_abcast_matches_reference_encoder(self):
        _, obs = observed_abcast(seed=3)
        text = streamed_chrome(obs.tracer.records)
        assert text == reference_chrome(obs.tracer.records)
        assert '"ph":"s"' in text and '"name":"critical-path[' in text

    def test_leader_partition_paths_with_cause_match_reference_encoder(self):
        # ~58k records -> ~117k events: many encoder chunks, and critical
        # paths whose args carry a nested ``cause``.
        _, obs = leader_partition_run()
        text = streamed_chrome(obs.tracer.records)
        assert text == reference_chrome(obs.tracer.records)
        assert '"cause":{' in text and '"cname":"terrible"' in text

    def test_obs_off_trace_matches_reference_encoder(self):
        # No detail kinds: no message ids, so no flows and no paths.
        spec = AbcastRunSpec(
            protocol="cabcast-l", rate=100.0, duration=0.3, seed=1, drain=2.0
        )
        tracer = Tracer()
        run_abcast_spec(spec, tracer=tracer)
        text = streamed_chrome(tracer.records)
        assert text == reference_chrome(tracer.records)
        assert {e["ph"] for e in json.loads(text)["traceEvents"]} == {"M", "i"}

    def test_empty_trace_is_an_empty_event_list(self):
        assert streamed_chrome([]) == '{"displayTimeUnit":"ms","traceEvents":[]}\n'
        assert streamed_chrome([]) == reference_chrome([])

    def test_chunk_boundaries_do_not_show_in_the_bytes(self, monkeypatch):
        # Event counts of exactly one chunk, one over and one under.
        from repro.obs import export

        _, obs = observed_abcast(seed=3)
        records = obs.tracer.records[:40]
        expected = reference_chrome(records)
        events = len(json.loads(expected)["traceEvents"])
        for chunk in (1, events - 1, events, events + 1):
            monkeypatch.setattr(export, "_CHUNK", chunk)
            assert streamed_chrome(records) == expected

    def test_fixed_seed_export_digest_is_pinned(self):
        # sha256 of this export at the commit before the exporter streamed
        # (62dc0f5, json.dump of the whole document).
        spec, obs = observed_abcast(seed=1)
        text = export_bytes(obs.tracer.records, spec, writer=export_chrome)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "f9986e72103ce7f7c194ef493b599902a17edfc29321f57e8221a8229aca5fa6"
        )


def sha256_of(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _FixedReport:
    """The report fields :func:`build_entry` reads, fixed, for a run that
    has no :class:`RunReport` (``run_consensus``): the entry's record-derived
    sections are what its digest pins."""

    key = "leader-partition"
    offered = delivered = 0
    network = {"sent": 0, "delivered": 0, "dropped": 0, "bytes_sent": 0}
    sim_time = 0.0
    rsm = None

    class spec:
        protocol = "l-consensus"
        seed = 21

        @staticmethod
        def to_dict():
            return {}

    @staticmethod
    def latency_summary_dict():
        return None


class TestObservedBytePins:
    """sha256 of every other byte stream an observed trace is read into,
    computed at the commit before message rows were stored as columns: a
    change to how records are kept or read back must not move them."""

    def test_jsonl_export_of_observed_abcast(self):
        spec, obs = observed_abcast(seed=1)
        assert sha256_of(export_bytes(obs.tracer.records, spec)) == (
            "dd131095ba7d9f3b49ee97b6e98afbbda6ed1015b704216389585c9131897558"
        )

    def test_jsonl_export_of_leader_partition_run(self):
        _, obs = leader_partition_run()
        out = io.StringIO()
        export_jsonl(obs.tracer.records, out)
        assert sha256_of(out.getvalue()) == (
            "197e4d0e01588a4de259710789eb3bdadfe529a85bc90d73857da54bd7150506"
        )

    def test_warehouse_entry_of_observed_abcast(self):
        from repro.engine import RunContext
        from repro.engine.runner import execute_run
        from repro.obs import build_entry

        spec = observed_abcast(seed=1)[0]
        obs = ObsRuntime.from_spec(spec)
        report = execute_run(spec, ctx=RunContext(tracer=obs.tracer, obs=obs))
        entry = build_entry(report, obs.tracer.records)
        assert sha256_of(json.dumps(entry, sort_keys=True)) == (
            "4b95cf65d5a4bd28767065eb5bc134d140e31a24b85f9a47ae2cb7176111072a"
        )

    def test_warehouse_entry_of_leader_partition_run(self):
        from repro.obs import build_entry

        _, obs = leader_partition_run()
        entry = build_entry(_FixedReport, obs.tracer.records)
        assert entry["critical_path"]["causes"]
        assert sha256_of(json.dumps(entry, sort_keys=True)) == (
            "785369b38f486e12a62794253b309022ea690b5cc4b76687f528840a0257d59e"
        )

    def test_flight_record_of_a_sabotaged_run(self):
        from tests.test_obs import sabotaged_flight_record

        dump = sabotaged_flight_record()
        assert sha256_of(json.dumps(dump, sort_keys=True)) == (
            "64d1484ee31c4b95917495762d3422dcd0f293ffaafbaf88694670d62e61f22e"
        )


class Micros(int):
    """A trace time whose microsecond value is an int, not a float."""

    def __mul__(self, other):
        return int(self) * 1_000_000


def msg_pair(
    send_time=0.001, send_pid=0, deliver_time=0.002, deliver_pid=1,
    send=(), deliver=(), drop=None, **both,
):
    """One msg-send and its msg-deliver as hand-built records: ``both``
    replaces fields of both records' data, ``send`` / ``deliver`` one
    side's, and ``drop`` removes a field from the send's data."""
    from repro.sim.trace import TraceRecord

    common = {"kind": "Vote", "channel": "cons", "id": 7, **both}
    send_data = {"dst": deliver_pid, **common, **dict(send)}
    deliver_data = {"src": send_pid, **common, **dict(deliver)}
    if drop is not None:
        del send_data[drop]
    return [
        TraceRecord(send_time, send_pid, "msg-send", send_data),
        TraceRecord(deliver_time, deliver_pid, "msg-deliver", deliver_data),
    ]


class Kind(str):
    """A trace kind that is a ``str`` subclass."""


def decision(
    pid=1, start=(), end=(), delivered=(0, 1), propose_at=0.0005, decided_at=0.003,
    send_pid=0, value=None,
):
    """One decided instance at ``pid`` as hand-built records: a propose, a
    round-start, the message that gates the decision, the round-end and
    an a-deliver.  ``start`` / ``end`` replace fields of the round-start's
    / round-end's data, ``value`` (when given) is the decided value object
    and ``delivered`` is the a-delivered message id."""
    from repro.sim.trace import TraceRecord

    end_data = {
        "outcome": "decided", "steps": 1, "via": "round",
        "value": [[0, 1]] if value is None else value, "instance": 1,
        **dict(end),
    }  # fmt: skip
    send, deliver = msg_pair(send_pid=send_pid, deliver_pid=pid, id=7 + pid)
    return [
        TraceRecord(propose_at, pid, "propose", {"value": [[0, 1]], "instance": 1}),
        TraceRecord(
            propose_at, pid, "round-start", {"round": 1, "instance": 1, **dict(start)}
        ),
        send,
        deliver,
        TraceRecord(decided_at, pid, "round-end", end_data),
        TraceRecord(decided_at, pid, "a-deliver", delivered),
    ]


def a_fallback_decision():
    """A two-step decision at p1 whose critical path names a cause: p1
    suspects p0 before its second round."""
    from repro.sim.trace import TraceRecord

    records = decision(end={"steps": 2})
    records[2:2] = [
        TraceRecord(0.0007, 1, "suspect", {"suspect": 0}),
        TraceRecord(0.0008, 1, "round-start", {"round": 2, "instance": 1}),
    ]
    return records


#: Decided values that several spans hold as one object.
SHARED_IDS = [[0, 1], [2, 3]]
SHARED_SET = frozenset({"b", "a"})

#: Records the event templates must not take: each
#: has to come out exactly as the C encoder writes it.
TEMPLATE_FALLBACKS = {
    "bool-id": msg_pair(id=True),
    "float-id": msg_pair(id=7.0),
    "none-id": msg_pair(id=None),
    "bool-dst": msg_pair(send={"dst": True}),
    "float-dst": msg_pair(send={"dst": 1.0}),
    "none-dst": msg_pair(send={"dst": None}),
    "bool-src": msg_pair(deliver={"src": False}),
    "float-src": msg_pair(deliver={"src": 0.0}),
    "none-src": msg_pair(deliver={"src": None}),
    "extra-key": msg_pair(send={"extra": 1}),
    "missing-key": msg_pair(drop="channel"),
    "data-not-a-dict": [
        msg_pair()[0]._replace(data=None),
        msg_pair()[1]._replace(data=[0, "Vote", "cons", 7]),
    ],
    "channel-not-a-string": msg_pair(channel=3),
    "kind-not-a-string": msg_pair(kind=None),
    "escaped-strings": msg_pair(kind='Vo"te\\ \u00e9\u2713', channel='c"h\\\u00f1\n'),
    "percent-strings": msg_pair(kind="Vote%d", channel="%s%%"),
    "negative-id": msg_pair(id=-3),
    "int-time": msg_pair(send_time=1, deliver_time=2),
    "inf-send-time": msg_pair(send_time=float("inf"), deliver_time=float("inf")),
    "inf-deliver-time": msg_pair(deliver_time=float("inf")),
    "nan-time": msg_pair(send_time=float("nan")),
    "int-micros-send": msg_pair(send_time=Micros(1)),
    "int-micros-deliver": msg_pair(deliver_time=Micros(2)),
    "float-send-pid": msg_pair(send_pid=2.0),
    "float-deliver-pid": msg_pair(deliver_pid=1.0),
    "bool-pid": msg_pair(
        send_pid=False, deliver_pid=True, send={"dst": 1}, deliver={"src": 0}
    ),
    # Kept records, spans, critical paths and hops.
    "bool-pid-on-kept": [
        r._replace(pid=True) if r.pid == 3 else r for r in decision(pid=3, send_pid=2)
    ],
    "inf-kept-time": decision(decided_at=float("inf")),
    "overflowing-micros": decision(decided_at=1e303),
    "str-subclass-kind": [r._replace(kind=Kind(r.kind)) for r in decision()],
    "bool-in-a-deliver-id": decision(delivered=(True, 1)),
    "float-in-a-deliver-id": decision(delivered=(0, 1.0)),
    "three-element-a-deliver-id": decision(delivered=(0, 1, 2)),
    "round-start-with-phase": decision(start={"phase": "collect"}),
    "bool-round": decision(start={"round": True}),
    "round-start-extra-key": decision(start={"extra": 1}),
    "set-decided-value": decision(end={"value": {"b", "a"}}),
    "value-with-a-non-id-item": decision(end={"value": [[0, 1], [2, "x"]]}),
    "value-json-cannot-encode": decision(end={"value": [range(2)]}),
    "value-shared-by-spans": (
        decision(pid=1, value=SHARED_IDS) + decision(pid=2, value=SHARED_IDS)
        + decision(pid=3, value=SHARED_SET) + decision(pid=0, send_pid=3, value=SHARED_SET)
    ),
    "path-with-a-cause": a_fallback_decision(),
    "bool-steps": decision(end={"steps": True}),
    # Finite timestamps 2e308 µs apart.
    "infinite-path-duration": decision(propose_at=-1e302, decided_at=1e302),
    "bool-hop-src": decision(send_pid=False),
}


#: A name that each templated event family writes.
TEMPLATED_FAMILIES = (
    '"name":"propose"', '"name":"round-start"', '"name":"round-end"',
    '"name":"a-deliver"', '"name":"consensus[', '"name":"critical-path[',
    '"name":"cp:',
)  # fmt: skip

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2**70), st.floats(), st.text(max_size=3)
)
_HASHABLE = st.recursive(
    _SCALARS, lambda items: st.tuples(items, items) | st.frozensets(items, max_size=3),
    max_leaves=6,
)
#: Nested data that ``json`` encodes; dict keys never name a message field.
_JSON_DATA = st.recursive(
    _SCALARS,
    lambda items: st.one_of(
        st.lists(items, max_size=3),
        st.tuples(items, items),
        st.dictionaries(st.text("ab", max_size=2), items, max_size=3),
    ),
    max_leaves=8,
)
#: Nested data with sets too.
_DATA = st.recursive(
    _SCALARS,
    lambda items: st.one_of(
        st.lists(items, max_size=3),
        st.tuples(items, items),
        st.dictionaries(st.text("ab", max_size=2), items, max_size=3),
        st.frozensets(_SCALARS, max_size=3),
        st.sets(st.integers(0, 5) | st.text(max_size=2), max_size=3),
    ),
    max_leaves=8,
)
_IDS = st.tuples(st.integers(0, 3), st.integers(0, 9))
_VALUES = st.one_of(
    st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=2), max_size=3),
    st.lists(_IDS, max_size=3),
    _DATA,
)
_INSTANCES = st.one_of(st.sampled_from([1, 2, None, True]), _IDS)
_TIMES = st.one_of(
    st.sampled_from([0.0005, 0.001, 0.002, 0.003, 0.004]),
    st.sampled_from([float("inf"), float("nan"), 1e303, -1e302, 1e302, 1, Micros(2)]),
)
_KEPT_DATA = {
    # Exported as they are (no describe_value): data a message record
    # holds when it is not a row.
    KINDS.MSG_SEND: _JSON_DATA,
    KINDS.MSG_DELIVER: _JSON_DATA,
    KINDS.A_BROADCAST: st.one_of(_IDS, _HASHABLE),
    KINDS.A_DELIVER: st.one_of(_IDS, _HASHABLE),
    KINDS.PROPOSE: st.one_of(
        st.fixed_dictionaries({"value": _VALUES, "instance": _INSTANCES}),
        st.dictionaries(st.text("ab", max_size=2), _DATA, max_size=3),
    ),
    KINDS.ROUND_START: st.fixed_dictionaries(
        {"round": st.integers(0, 3) | st.booleans(), "instance": _INSTANCES},
        optional={"phase": st.none() | st.text(max_size=3), "extra": _DATA},
    ),
    KINDS.ROUND_END: st.fixed_dictionaries(
        {
            "outcome": st.sampled_from(["decided", "forward"]) | st.text(max_size=3),
            "steps": st.integers(0, 3) | st.booleans() | st.none(),
            "via": st.sampled_from(["round", "forward"]) | st.none(),
            "value": _VALUES,
            "instance": _INSTANCES,
        },
        optional={"extra": _DATA},
    ),
    KINDS.TXN_BEGIN: st.fixed_dictionaries(
        {"txid": st.integers(0, 3), "shards": st.lists(st.integers(0, 3), max_size=3)}
    ),
    KINDS.TXN_VOTE: st.fixed_dictionaries(
        {"txid": st.integers(0, 3), "shard": st.integers(0, 3), "vote": st.text(max_size=3)}
    ),
    KINDS.TXN_DECIDE: st.fixed_dictionaries(
        {"txid": st.integers(0, 3), "decision": st.text(max_size=3)}
    ),
    KINDS.TXN_END: st.fixed_dictionaries(
        {"txid": st.integers(0, 3), "decision": st.text(max_size=3)}
    ),
}


@st.composite
def kept_records(draw):
    """A record of any kind with data of any shape its readers accept."""
    from repro.sim.trace import TraceRecord

    kind = draw(st.sampled_from(sorted(KINDS.ALL)) | st.sampled_from(sorted(_KEPT_DATA)))
    data = draw(_KEPT_DATA.get(kind, _DATA))
    return TraceRecord(draw(_TIMES), draw(st.sampled_from([-1, 0, 1, 2])), kind, data)


def _alone(record):
    return [record]


@st.composite
def decisions(draw):
    """:func:`decision` records with random fields."""
    return decision(
        pid=draw(st.integers(0, 2)),
        start=draw(st.fixed_dictionaries({}, optional={
            "round": st.integers(1, 3) | st.booleans(), "phase": st.text(max_size=2),
        })),
        end=draw(st.fixed_dictionaries({}, optional={
            "steps": st.integers(1, 3) | st.booleans() | st.none(),
            "via": st.sampled_from(["round", "forward"]) | st.none(),
            "instance": _INSTANCES,
            "value": _VALUES,
        })),
        delivered=draw(st.one_of(_IDS, _HASHABLE)),
        propose_at=draw(st.sampled_from([0.0005, 0.001]) | _TIMES),
        decided_at=draw(st.sampled_from([0.003, 0.004]) | _TIMES),
        send_pid=draw(st.integers(0, 2)),
    )  # fmt: skip


@st.composite
def message_rows(draw):
    """A msg-send or msg-deliver as the network writes it."""
    from repro.sim.trace import TraceRecord

    send = draw(st.booleans())
    data = {
        "dst" if send else "src": draw(st.integers(0, 2)),
        "kind": draw(st.sampled_from(["Vote", "Ack"])),
        "channel": "cons",
        "id": draw(st.integers(0, 12)),
    }
    time = draw(st.sampled_from([0.0005, 0.001, 0.002, 0.003, 0.004]))
    return TraceRecord(time, draw(st.integers(0, 2)), "msg-send" if send else "msg-deliver", data)


class TestChromeTemplateFallbacks:
    """Message rows and flow arrows come from fixed templates only when the
    template writes what ``json.dumps`` would; every other shape falls back
    to the encoder, byte for byte."""

    @pytest.mark.parametrize(
        "records", TEMPLATE_FALLBACKS.values(), ids=TEMPLATE_FALLBACKS.keys()
    )
    def test_streamed_bytes_match_the_reference_encoder(self, records):
        assert streamed_chrome(records) == reference_chrome(records)

    def test_templated_rows_match_the_reference_encoder(self):
        records = msg_pair()
        text = streamed_chrome(records)
        assert text == reference_chrome(records)
        assert '"ph":"s"' in text and '"ph":"f"' in text

    def test_templated_kept_records_spans_and_paths_match_the_reference_encoder(self):
        records = decision(pid=1) + decision(pid=2, send_pid=1)
        text = streamed_chrome(records)
        assert text == reference_chrome(records)
        for family in TEMPLATED_FAMILIES:
            assert family in text, family

    @seed(44)
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                kept_records().map(_alone), message_rows().map(_alone), decisions(),
                st.builds(a_fallback_decision),
            ),
            max_size=12,
        ).map(lambda chunks: [record for chunk in chunks for record in chunk])
    )
    def test_random_kept_records_among_message_rows(self, records):
        assert streamed_chrome(records) == reference_chrome(records)



def record_by_record(log):
    """The causal graph of ``log`` built one record at a time."""
    graph = CausalGraph()
    for record in log:
        graph.add(*record)
    return graph


def assert_same_graph(columns, records):
    assert type(columns).__name__ == "_LogGraph"
    assert columns.sends == records.sends
    assert columns.delivers == records.delivers
    assert columns.orphan_delivers == records.orphan_delivers
    assert columns.flows() == records.flows()
    assert list(columns.flow_rows()) == list(records.flow_rows())
    assert columns.unmatched_sends == records.unmatched_sends
    assert columns.orphan_count == records.orphan_count
    assert columns.triggers == records.triggers
    assert columns.nemesis_ops == records.nemesis_ops
    for deliver in records.delivers.values():
        for time in (deliver.time, deliver.time - 1e-9, deliver.time + 1e-9):
            assert columns.last_arrival_before(deliver.dst, time) == (
                records.last_arrival_before(deliver.dst, time)
            )
        assert columns.send_of(deliver.id) == records.send_of(deliver.id)


@st.composite
def message_logs(draw):
    """Message rows with repeated, negative and out-of-order ids, sends
    after their deliveries, and equal arrival times."""
    from repro.sim.trace import TraceLog

    log = TraceLog()
    for _ in range(draw(st.integers(0, 40))):
        send = draw(st.booleans())
        data = {
            "dst" if send else "src": draw(st.integers(0, 3)),
            "kind": draw(st.sampled_from(["Vote", "Ack"])),
            "channel": "reliable",
            "id": draw(st.integers(-2, 12)),
        }
        time = draw(st.sampled_from([0.001, 0.002, 0.003]))
        pid = draw(st.integers(0, 3))
        log.append((time, pid, "msg-send" if send else "msg-deliver", data))
    if draw(st.booleans()):
        log.append((0.0015, 1, "suspect", {"suspect": 0}))
    return log


class TestGraphFromColumns:
    """A graph read from a log's columns answers every query as the graph
    built record by record does."""

    @seed(7)
    @settings(max_examples=150, deadline=None)
    @given(message_logs())
    def test_hand_built_logs(self, log):
        assert_same_graph(CausalGraph.from_records(log), record_by_record(log))

    def test_observed_runs(self):
        _, cut = observed_abcast(seed=2, nemesis=PARTITION)
        _, consensus = leader_partition_run()
        for obs in (cut, consensus):
            log = obs.tracer.records
            assert_same_graph(CausalGraph.from_records(log), record_by_record(log))

    def test_a_loose_message_record_builds_record_by_record(self):
        records = msg_pair(id=7.0) + msg_pair(send_time=0.003, deliver_time=0.004, id=8)
        graph = CausalGraph.from_records(records)
        assert type(graph) is CausalGraph
        assert list(graph.delivers) == [8] and len(graph.orphan_delivers) == 1

    def test_no_message_record_can_be_added_to_it(self):
        graph = CausalGraph.from_records(msg_pair())
        with pytest.raises(TypeError):
            graph.add(*msg_pair()[0])


class TestKeptFold:
    """The warehouse entry and the Chrome export share one fold of a
    tracer's record log, kept on the log while no record is added."""

    @pytest.fixture
    def ingests(self, monkeypatch):
        """The number of :func:`_ingest` passes made so far."""
        from repro.obs import causal

        calls = []
        ingest = causal._ingest

        def counted(events):
            calls.append(None)
            return ingest(events)

        monkeypatch.setattr(causal, "_ingest", counted)
        return calls

    def test_entry_then_export_of_one_log_folds_it_once(self, ingests):
        from repro.obs import build_entry

        from tests.test_warehouse import observed_run

        report, records = observed_run(seed=2, nemesis=PARTITION)
        entry = build_entry(report, records)
        text = streamed_chrome(records)
        assert len(ingests) == 1
        assert entry["critical_path"]["paths"] > 0 and '"ph":"s"' in text
        # A plain list keeps no fold: the export folds it afresh, to the
        # same bytes, and the log's fold is untouched.
        assert streamed_chrome(list(records)) == text
        assert len(ingests) == 2
        streamed_chrome(records)
        assert len(ingests) == 2

    def test_a_record_emitted_after_the_fold_folds_the_log_again(self, ingests):
        tracer = Tracer()
        first, second = msg_pair(), msg_pair(send_time=0.003, deliver_time=0.004, id=8)
        for record in first:
            tracer.emit(*record)
        assert streamed_chrome(tracer.records) == reference_chrome(first)
        for record in second:
            tracer.emit(*record)
        assert streamed_chrome(tracer.records) == reference_chrome(first + second)
        assert len(ingests) == 2

    def test_clear_then_as_many_records_does_not_reuse_the_fold(self, ingests):
        tracer = Tracer()
        for record in msg_pair():
            tracer.emit(*record)
        streamed_chrome(tracer.records)
        tracer.clear()
        replacement = msg_pair(send_pid=2, deliver_pid=3, kind="Ack", id=11)
        for record in replacement:
            tracer.emit(*record)
        assert streamed_chrome(tracer.records) == reference_chrome(replacement)
        assert len(ingests) == 2


class TestGraphFromTheKeptFold:
    """A log whose fold is current gives graphs that share the fold graph's
    row arrays and arrival index, answer every query as the graph built
    record by record does, and share nothing that can be added to."""

    @staticmethod
    def folded(records=None):
        """A log folded once, and the graph its fold keeps."""
        from repro.obs import causal

        if records is None:
            _, obs = observed_abcast(seed=2, nemesis=PARTITION)
            log = obs.tracer.records
        else:
            from repro.sim.trace import TraceLog

            log = TraceLog(records)
        return log, causal._fold(log).flows._graph

    def test_a_folded_log_reuses_the_fold_graph(self):
        log, kept = self.folded()
        graph = CausalGraph.from_records(log)
        assert graph is not kept
        assert graph._send_row is kept._send_row
        assert graph._arrival_rows is kept._arrival_rows is not None
        assert_same_graph(graph, record_by_record(log))
        assert graph.nemesis_ops and graph.triggers

    def test_graphs_of_one_log_share_no_mutable_state(self):
        log, kept = self.folded()
        first, second = CausalGraph.from_records(log), CausalGraph.from_records(log)
        triggers, ops = list(kept.triggers), list(kept.nemesis_ops)
        first.add(0.5, 1, "suspect", {"suspect": 0})
        first.add(0.6, -1, "nemesis-start", {"index": 9, "op": "drop", "at": 0.6})
        assert len(first.triggers) == len(triggers) + 2
        assert len(first.nemesis_ops) == len(ops) + 1
        for other in (second, kept):
            assert other.triggers == triggers and other.nemesis_ops == ops

    def test_an_arrival_index_built_after_the_copy_stays_its_own(self):
        # No decided span: the fold never asked for an arrival.
        log, kept = self.folded(msg_pair())
        graph = CausalGraph.from_records(log)
        assert kept._arrival_rows is None
        assert graph.last_arrival_before(1, 1.0) == (
            record_by_record(log).last_arrival_before(1, 1.0)
        )
        assert kept._arrival_rows is None and kept._arrival_times == {}
        assert_same_graph(kept, record_by_record(log))

    def test_a_log_appended_after_its_fold_gets_a_fresh_graph(self):
        log, kept = self.folded()
        log.append((0.5, 1, "suspect", {"suspect": 0}))
        graph = CausalGraph.from_records(log)
        assert graph._send_row is not kept._send_row
        assert_same_graph(graph, record_by_record(log))
        assert len(graph.triggers) == len(kept.triggers) + 1


class TestFlightRecorderOnReplay:
    def test_trial_failures_carry_flight_record(self, monkeypatch):
        # The fuzzer forces the flight recorder on for every trial, so a
        # finding's error arrives with its per-pid black box attached.
        from repro.harness.registry import CONSENSUS, PROTOCOLS, ProtocolInfo
        from repro.nemesis.fuzz import _run_trial, _trial_spec
        from repro.nemesis.spec import CrashOp

        from tests.test_fault_injection import GreedyLConsensus
        from tests.test_fuzz import greedy_spec

        registry = dict(PROTOCOLS)
        registry["greedy-l"] = ProtocolInfo(
            "greedy-l",
            CONSENSUS,
            lambda pid, env, oracle, host: GreedyLConsensus(env, oracle.omega(pid)),
            description="naive one-step (Theorem 1 violation)",
        )
        monkeypatch.setattr("repro.harness.registry.PROTOCOLS", registry)

        schedule = NemesisSpec((CrashOp(at=0.002, pid=0),))
        _, err = _run_trial(_trial_spec(greedy_spec(), schedule))
        assert err is not None
        dump = err.flight_record
        assert dump and any(dump.values())

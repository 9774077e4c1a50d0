"""Unit tests for the structured tracer."""

import copy
import json
import pickle

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.sim.trace import KINDS, CountingTracer, LogColumns, TraceLog, TraceRecord, Tracer


class TestTracer:
    def test_emit_and_query_by_kind(self):
        tracer = Tracer()
        tracer.emit(1.0, 0, "decide", "v")
        tracer.emit(2.0, 1, "deliver", "m")
        tracer.emit(3.0, 0, "decide", "w")
        assert [r.data for r in tracer.of_kind("decide")] == ["v", "w"]

    def test_by_pid_groups(self):
        tracer = Tracer()
        tracer.emit(1.0, 0, "x")
        tracer.emit(2.0, 1, "x")
        tracer.emit(3.0, 0, "y")
        groups = tracer.by_pid()
        assert len(groups[0]) == 2 and len(groups[1]) == 1
        assert len(tracer.by_pid("x")[0]) == 1

    def test_first(self):
        tracer = Tracer()
        assert tracer.first("never") is None
        tracer.emit(1.0, 0, "a", 1)
        tracer.emit(2.0, 0, "a", 2)
        assert tracer.first("a").data == 1

    def test_subscribers_get_records_synchronously(self):
        tracer = Tracer()
        seen = []
        tracer.subscribe(seen.append)
        tracer.emit(1.0, 2, "evt")
        assert seen == [TraceRecord(1.0, 2, "evt", None)]

    def test_subscribe_returns_the_callable(self):
        tracer = Tracer()

        def listener(record):
            pass

        assert tracer.subscribe(listener) is listener

    def test_unsubscribed_callback_stops_receiving(self):
        tracer = Tracer()
        seen = []
        handle = tracer.subscribe(seen.append)
        tracer.emit(1.0, 0, "evt")
        tracer.unsubscribe(handle)
        tracer.emit(2.0, 0, "evt")
        assert [r.time for r in seen] == [1.0]

    def test_unsubscribe_unknown_callback_is_a_noop(self):
        tracer = Tracer()
        tracer.unsubscribe(lambda r: None)  # must not raise

    def test_kinds_and_filter(self):
        tracer = Tracer()
        tracer.emit(1.0, 0, "a")
        tracer.emit(2.0, 0, "b")
        assert tracer.kinds() == {"a", "b"}
        assert len(list(tracer.filter(lambda r: r.time > 1.5))) == 1

    def test_clear(self):
        tracer = Tracer()
        tracer.emit(1.0, 0, "a")
        tracer.clear()
        assert tracer.records == []
        assert tracer.counts() == {}

    def test_queries_see_records_emitted_after_an_earlier_query(self):
        # The per-kind index is built on the first query and extended by
        # later ones, never on emit.
        tracer = Tracer()
        tracer.emit(1.0, 0, "a")
        assert tracer.counts() == {"a": 1}
        tracer.emit(2.0, 1, "b")
        tracer.emit(3.0, 0, "a")
        assert list(tracer.counts().items()) == [("a", 2), ("b", 1)]
        assert [r.time for r in tracer.of_kind("a")] == [1.0, 3.0]
        assert tracer.first("b").time == 2.0
        tracer.clear()
        tracer.emit(4.0, 0, "c")
        assert tracer.kinds() == {"c"}


class TestTraceLog:
    def _log(self):
        tracer = Tracer()
        tracer.emit(1.0, 0, "a", {"x": 1})
        tracer.emit(2.0, 1, "b")
        tracer.records.fold = "kept"
        return tracer.records

    def test_a_tracer_records_into_a_trace_log(self):
        tracer = Tracer()
        tracer.emit(1.0, 0, "a")
        assert type(tracer.records) is TraceLog and tracer.records.fold is None
        assert tracer.records == [TraceRecord(1.0, 0, "a", None)]

    def test_clear_drops_the_fold(self):
        tracer = Tracer()
        tracer.emit(1.0, 0, "a")
        tracer.records.fold = "kept"
        tracer.clear()
        assert tracer.records == [] and tracer.records.fold is None

    def test_pickle_and_copies_carry_the_records_only(self):
        log = self._log()
        for twin in (
            pickle.loads(pickle.dumps(log)),
            copy.copy(log),
            copy.deepcopy(log),
        ):
            assert type(twin) is TraceLog and twin is not log
            assert twin == log and twin.fold is None
        assert log.fold == "kept"

    def test_slices_are_plain_lists(self):
        assert type(self._log()[:1]) is list


class Micros(float):
    """A trace time of a float subclass: equal to its float, not one."""


PEER_KEYS = {KINDS.MSG_SEND: "dst", KINDS.MSG_DELIVER: "src"}
times = st.floats(allow_nan=False, width=64)
ints = st.integers(-(2**40), 2**40) | st.integers(-3, 9)


@st.composite
def message_rows(draw):
    """A conforming msg-send / msg-deliver record, keys in any order, and
    whether the network's row writer may emit it."""
    kind = draw(st.sampled_from(sorted(PEER_KEYS)))
    values = {
        PEER_KEYS[kind]: draw(ints),
        "kind": draw(st.sampled_from(["Vote", "Ack", "Propose"])),
        "channel": draw(st.sampled_from(["reliable", "datagram"])),
        "id": draw(ints),
    }
    keys = draw(st.permutations(list(values)))
    record = TraceRecord(draw(times), draw(ints), kind, {k: values[k] for k in keys})
    return record, keys == list(values) and draw(st.booleans())


@st.composite
def malformed_rows(draw):
    """A msg-send / msg-deliver record that is not a message row."""
    record, _ = draw(message_rows())
    data = dict(record.data)
    flaw = draw(st.sampled_from(
        ["id", "peer", "missing", "extra", "micros", "int-time", "not-a-dict", "pid"]
    ))  # fmt: skip
    time, pid = record.time, record.pid
    if flaw == "id":
        data["id"] = draw(st.sampled_from([7.0, "7", None, True]))
    elif flaw == "peer":
        data[PEER_KEYS[record.kind]] = draw(st.sampled_from([1.0, False, None]))
    elif flaw == "missing":
        del data[draw(st.sampled_from(sorted(data)))]
    elif flaw == "extra":
        data["extra"] = 1
    elif flaw == "micros":
        time = Micros(time)
    elif flaw == "int-time":
        time = draw(st.integers(0, 10))
    elif flaw == "not-a-dict":
        data = draw(st.sampled_from([None, [0, "Vote", "reliable", 7]]))
    else:
        pid = draw(st.sampled_from([True, 1.0]))
    return TraceRecord(time, pid, record.kind, data), False


other_rows = st.builds(
    lambda time, pid, kind, data: (TraceRecord(time, pid, kind, data), False),
    times,
    ints,
    st.sampled_from([KINDS.DECIDE, KINDS.A_DELIVER, "evt"]),
    st.none() | ints | st.dictionaries(st.sampled_from("abc"), ints, max_size=3),
)

interleavings = st.lists(message_rows() | malformed_rows() | other_rows, max_size=30)


def recorded(entries):
    """A tracer fed ``entries`` (rows through the writers where allowed)."""
    tracer = Tracer()
    for record, through_writer in entries:
        if through_writer:
            writer = tracer.sends if record.kind == KINDS.MSG_SEND else tracer.delivers
            data = record.data
            writer.emit(
                record.time, record.pid, data[PEER_KEYS[record.kind]],
                data["kind"], data["channel"], data["id"],
            )  # fmt: skip
        else:
            tracer.emit(*record)
    return tracer


def jsonl_row(record):
    data = record.data
    if isinstance(data, dict):
        data = {key: data[key] for key in sorted(data)}
    return [record.time, record.pid, record.kind, data]


class TestTraceLogReadsBackAsAList:
    """A log reads back as the plain list of the records emitted into it,
    whichever of them it keeps as columns."""

    @seed(42)
    @settings(max_examples=150, deadline=None)
    @given(interleavings, st.data())
    def test_every_read_equals_the_reference(self, entries, data):
        reference = [record for record, _ in entries]
        tracer = recorded(entries)
        log = tracer.records
        assert len(log) == len(reference)
        assert list(log) == reference and log == reference and reference == log
        # Equal keys in the emitted order, the same float and int values.
        assert repr(log) == repr(reference)
        assert all(type(r) is TraceRecord for r in log)
        for i in range(-len(reference), len(reference)):
            assert log[i] == reference[i]
        for _ in range(3):
            bounds = slice(
                data.draw(st.none() | st.integers(-35, 35)),
                data.draw(st.none() | st.integers(-35, 35)),
                data.draw(st.none() | st.sampled_from([1, 2, -1, 3])),
            )
            part = log[bounds]
            assert type(part) is list and part == reference[bounds]
        for twin in (pickle.loads(pickle.dumps(log)), copy.copy(log), copy.deepcopy(log)):
            assert type(twin) is TraceLog and twin == log
            assert repr(twin) == repr(log)
        rows = [jsonl_row(record) for record in reference]
        assert repr(TraceLog(rows)) == repr([TraceRecord(*row) for row in rows])

    @seed(43)
    @settings(max_examples=100, deadline=None)
    @given(interleavings)
    def test_queries_answer_as_over_the_reference(self, entries):
        reference = [record for record, _ in entries]
        tracer = recorded(entries)
        expected: dict = {}
        for record in reference:
            expected[record.kind] = expected.get(record.kind, 0) + 1
        assert list(tracer.counts().items()) == list(expected.items())
        assert tracer.kinds() == set(expected)
        for kind in sorted(expected) + ["absent"]:
            of_kind = [r for r in reference if r.kind == kind]
            assert tracer.of_kind(kind) == of_kind
            assert tracer.first(kind) == (of_kind[0] if of_kind else None)
            by_pid: dict = {}
            for r in of_kind:
                by_pid.setdefault(r.pid, []).append(r)
            assert list(tracer.by_pid(kind).items()) == list(by_pid.items())

    @seed(45)
    @settings(max_examples=60, deadline=None)
    @given(st.lists(interleavings, max_size=3))
    def test_merge_interleaves_logs_by_time_position_and_index(self, shards):
        logs = [recorded(entries).records for entries in shards]
        tagged = [
            (record.time, position, index, record)
            for position, log in enumerate(logs)
            for index, record in enumerate(log)
        ]
        reference = [record for *_, record in sorted(tagged, key=lambda item: item[:3])]
        tracer = Tracer()
        tracer.merge(log.columns() for log in logs)
        # Equal keys in the emitted order: a row whose keys are not in the
        # network's order keeps its own.
        assert repr(tracer.records) == repr(reference)
        assert len(tracer.records.kept) == sum(len(log.kept) for log in logs)
        assert tracer.records.loose == sum(log.loose for log in logs)
        watched, seen = Tracer(), []
        watched.subscribe(seen.append)
        watched.merge(pickle.loads(pickle.dumps(log.columns())) for log in logs)
        assert seen == reference and repr(watched.records) == repr(reference)
        assert all(type(log.columns()) is LogColumns for log in logs)

    def test_message_rows_are_columns_and_the_rest_kept(self):
        tracer = Tracer()
        tracer.sends.emit(1.0, 0, 1, "Vote", "reliable", 0)
        tracer.emit(1.0, 0, KINDS.MSG_SEND, {"dst": 1, "kind": "Vote", "channel": "reliable", "id": 1.0})
        tracer.emit(float("nan"), 0, KINDS.MSG_SEND, {"dst": 1, "kind": "Vote", "channel": "reliable", "id": 2})
        tracer.emit(2.0, 1, KINDS.DECIDE, {"value": "v"})
        log = tracer.records
        assert list(log.order) == [1, 0, 0, 0] and list(log.ids) == [0]
        assert [r.kind for r in log.kept] == [KINDS.MSG_SEND, KINDS.MSG_SEND, KINDS.DECIDE]
        assert log.loose == 2
        assert log[0].data is not log[0].data  # a fresh dict per read

    def test_jsonl_round_trip_of_an_observed_log(self):
        tracer = Tracer()
        tracer.sends.emit(0.5, 2, 3, "Vote", "reliable", 4)
        tracer.delivers.emit(0.75, 3, 2, "Vote", "reliable", 4)
        rows = json.loads(json.dumps([list(r) for r in tracer.records], sort_keys=True))
        assert TraceLog(rows) == tracer.records
        assert len(TraceLog(rows).kept) == 0


class TestCountingTracer:
    def _emit_all(self, tracer):
        tracer.emit(1.0, 0, "b")
        tracer.emit_broadcast(2.0, 1, (1, 1))
        tracer.emit(2.5, 0, "b")
        tracer.emit_decide(3.0, 2, "v", 1, "round")

    def test_counts_equal_a_recording_tracers_in_first_seen_order(self):
        recording, counting = Tracer(), CountingTracer()
        self._emit_all(recording)
        self._emit_all(counting)
        assert list(counting.counts().items()) == list(recording.counts().items())
        assert counting.records == []

    def test_tally_keeps_each_kinds_first_time(self):
        tracer = CountingTracer()
        self._emit_all(tracer)
        assert tracer.tally() == {"b": (1.0, 2), "a-broadcast": (2.0, 1), "decide": (3.0, 1)}

    def test_subscribers_still_see_every_record(self):
        tracer = CountingTracer()
        seen = []
        tracer.subscribe(seen.append)
        tracer.emit(1.0, 2, "evt", "d")
        assert seen == [TraceRecord(1.0, 2, "evt", "d")]
        assert tracer.counts() == {"evt": 1}

    def test_clear_forgets_the_counts_like_a_recording_tracer(self):
        recording, counting = Tracer(), CountingTracer()
        for tracer in (recording, counting):
            tracer.emit(0.0, 1, "decide")
            tracer.clear()
        assert counting.counts() == recording.counts() == {}
        assert counting.tally() == {}
        counting.emit(2.0, 0, "decide")
        assert counting.tally() == {"decide": (2.0, 1)}

    def test_absorb_adds_counts_and_keeps_the_first_seen_kind(self):
        tracer = CountingTracer()
        tracer.emit(5.0, 0, "a")
        tracer.absorb("b", 1.0, 3)
        tracer.absorb("a", 0.5, 2)
        assert list(tracer.counts().items()) == [("a", 3), ("b", 3)]
        assert tracer.tally()["a"] == (5.0, 3)


class TestKinds:
    def test_constants_pin_the_wire_strings(self):
        assert KINDS.A_BROADCAST == "a-broadcast"
        assert KINDS.A_DELIVER == "a-deliver"
        assert KINDS.DECIDE == "decide"
        assert KINDS.ALL == {
            "a-broadcast",
            "a-deliver",
            "decide",
            "propose",
            "round-start",
            "round-end",
            "leader-change",
            "suspect",
            "trust",
            "msg-send",
            "msg-deliver",
            "rsm-apply",
            "rsm-snapshot",
            "rsm-catchup",
            "txn-begin",
            "txn-vote",
            "txn-decide",
            "txn-end",
            "net-partition",
            "net-heal",
            "nemesis-start",
            "nemesis-end",
        }

    def test_all_tracks_every_declared_constant(self):
        declared = {
            value
            for name, value in vars(KINDS).items()
            if name.isupper() and isinstance(value, str)
        }
        assert KINDS.ALL == declared

    def test_typed_emits_match_raw_emit(self):
        typed, raw = Tracer(), Tracer()
        typed.emit_broadcast(1.0, 0, (0, 1))
        typed.emit_deliver(2.0, 1, (0, 1))
        typed.emit_decide(3.0, 0, "v", 1, "round")
        raw.emit(1.0, 0, "a-broadcast", (0, 1))
        raw.emit(2.0, 1, "a-deliver", (0, 1))
        raw.emit(3.0, 0, "decide", {"value": "v", "steps": 1, "via": "round"})
        assert typed.records == raw.records

    def test_counts(self):
        tracer = Tracer()
        tracer.emit_broadcast(1.0, 0, (0, 1))
        tracer.emit_deliver(2.0, 0, (0, 1))
        tracer.emit_deliver(2.1, 1, (0, 1))
        assert tracer.counts() == {KINDS.A_BROADCAST: 1, KINDS.A_DELIVER: 2}

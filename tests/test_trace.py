"""Unit tests for the structured tracer."""

from repro.sim.trace import KINDS, CountingTracer, TraceRecord, Tracer


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

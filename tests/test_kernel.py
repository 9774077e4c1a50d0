"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator, derive_seed


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_events_scheduled_during_execution_run(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, fired.append, "inner")

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == 2.0

    def test_zero_delay_event_runs_at_same_time(self):
        sim = Simulator()
        times = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending() == 1


class TestHorizon:
    def test_run_until_leaves_later_events_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_advances_clock_even_when_idle(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_budget(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_exhausted_budget_is_flagged_and_keeps_the_clock(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(until=100.0, max_events=3)
        assert sim.exhausted and sim.now == 3.0
        sim.run(until=100.0, max_events=7)  # exactly enough: reaches the horizon
        assert not sim.exhausted and sim.now == 100.0

    def test_stop_from_handler(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired[0][0] == "a" if isinstance(fired[0], tuple) else fired == ["a"]
        assert "b" not in fired

    def test_run_not_reentrant(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, reenter)
        sim.run()


class TestStep:
    def test_step_executes_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        sim = Simulator(seed=7)
        assert sim.rng("net") is sim.rng("net")

    def test_different_names_are_independent(self):
        a = Simulator(seed=7)
        b = Simulator(seed=7)
        # Drawing from one stream must not perturb another.
        a.rng("x").random()
        assert a.rng("y").random() == b.rng("y").random()

    def test_streams_reproducible_across_instances(self):
        a = Simulator(seed=123)
        b = Simulator(seed=123)
        assert [a.rng("n", 1).random() for _ in range(5)] == [
            b.rng("n", 1).random() for _ in range(5)
        ]

    def test_different_seeds_differ(self):
        a = Simulator(seed=1)
        b = Simulator(seed=2)
        assert a.rng("n").random() != b.rng("n").random()

    def test_derive_seed_is_stable(self):
        assert derive_seed(5, "net", 3) == derive_seed(5, "net", 3)
        assert derive_seed(5, "net", 3) != derive_seed(5, "net", 4)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            sim = Simulator(seed=99)
            trace = []

            def emit(tag):
                trace.append((sim.now, tag))
                if len(trace) < 20:
                    sim.schedule(sim.rng("jitter").random(), emit, tag + 1)

            sim.schedule(0.0, emit, 0)
            sim.run()
            return trace

        assert run_once() == run_once()

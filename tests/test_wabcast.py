"""Protocol tests for the WABCast baseline."""

import pytest

from repro.errors import ConfigurationError
from repro.harness.abcast_runner import run_abcast
from repro.oracles.wab import WabMessage
from repro.protocols import WabCast
from repro.protocols.wabcast import WabCheck, WabDecision
from repro.sim.network import ConstantDelay, UniformDelay

from tests.conftest import make_wabcast
from tests.test_protocol_guards import ScriptEnv

D = ConstantDelay(100e-6)


class TestGoodPath:
    def test_single_message_two_delta(self):
        result = run_abcast(
            make_wabcast, 4, {0: [(0.001, "m")]}, seed=1, delay=D, datagram_delay=D, horizon=5.0
        )
        assert result.latency_of((0, 1)) == pytest.approx(2 * 100e-6, rel=0.01)

    def test_uncontended_stream(self):
        schedule = {0: [(0.01 * (i + 1), f"s{i}") for i in range(10)]}
        result = run_abcast(make_wabcast, 4, schedule, seed=2, horizon=5.0)
        assert result.deliveries[0] == [(0, i + 1) for i in range(10)]
        # Each round needed exactly one inner voting round: no collisions.
        assert result.hosts[0].abcast.inner_rounds_run == result.hosts[0].abcast.rounds_completed

    def test_no_failure_detector_is_used(self):
        result = run_abcast(
            make_wabcast, 4, {0: [(0.001, "m")]}, seed=3, horizon=5.0, use_oracle_fd=False
        )
        assert result.delivered_count == 1


class TestCollisions:
    def test_collisions_cost_extra_inner_rounds(self):
        schedules = {p: [(0.0005 * i, f"c{p}.{i}") for i in range(8)] for p in range(4)}
        result = run_abcast(
            make_wabcast,
            4,
            schedules,
            seed=4,
            datagram_delay=UniformDelay(50e-6, 400e-6),
            horizon=20.0,
        )
        host = result.hosts[0].abcast
        assert host.inner_rounds_run > host.rounds_completed  # retries happened
        assert result.delivered_count == 32

    def test_total_order_under_heavy_collisions(self):
        schedules = {p: [(0.0002 * i, f"h{p}.{i}") for i in range(12)] for p in range(4)}
        result = run_abcast(
            make_wabcast,
            4,
            schedules,
            seed=5,
            datagram_delay=UniformDelay(50e-6, 500e-6),
            horizon=30.0,
        )
        assert result.delivered_count == 48
        assert len({tuple(s) for s in result.deliveries.values()}) == 1

    def test_laggard_catches_up_via_decision_messages(self):
        # Delay all WAB traffic to p3 so it lags; WabDecision messages must
        # still carry it forward.
        schedules = {0: [(0.001 * (i + 1), f"m{i}") for i in range(6)]}

        result = run_abcast(
            make_wabcast,
            4,
            schedules,
            seed=6,
            datagram_delay=UniformDelay(50e-6, 2000e-6),
            horizon=20.0,
        )
        assert result.deliveries[3] == [(0, i + 1) for i in range(6)]


class TestFaultTolerance:
    def test_initial_crash(self):
        result = run_abcast(
            make_wabcast,
            4,
            {0: [(0.001, "a")], 1: [(0.003, "b")]},
            seed=7,
            initially_crashed=(2,),
            horizon=10.0,
        )
        for pid in (0, 1, 3):
            assert set(result.deliveries[pid]) == {(0, 1), (1, 1)}

    def test_crash_mid_stream_survivors_agree(self):
        schedules = {
            0: [(0.001 * (i + 1), f"a{i}") for i in range(8)],
            3: [(0.0012 * (i + 1), f"d{i}") for i in range(5)],
        }
        result = run_abcast(
            make_wabcast,
            4,
            schedules,
            seed=8,
            crash_at={3: 0.003},
            detection_delay=0.002,
            horizon=20.0,
            require_all_delivered=False,
        )
        for pid in (0, 1, 2):
            assert [m for m in result.deliveries[pid] if m[0] == 0] == [
                (0, i + 1) for i in range(8)
            ]

    def test_f_bound_enforced(self):
        with pytest.raises(ConfigurationError):
            run_abcast(
                lambda pid, env, oracle, host: WabCast(env, f=2),
                4,
                {0: [(0.001, "x")]},
                seed=9,
            )

    def test_seed_sweep_safety(self):
        schedules = {p: [(0.0003 * i, f"s{p}.{i}") for i in range(5)] for p in range(4)}
        for seed in range(6):
            run_abcast(
                make_wabcast,
                4,
                schedules,
                seed=seed,
                datagram_delay=UniformDelay(50e-6, 400e-6),
                horizon=30.0,
            )


class TestStateLifetime:
    """A delivered round leaves no WABCast state behind (docs/SIMULATOR.md)."""

    def test_long_run_holds_only_the_rounds_in_flight(self):
        rounds = 2000
        # The C-Abcast lifetime test's workload: two jittered senders, so
        # decisions, checks and first w-deliveries often arrive late.
        schedule = {
            p: [(0.001 * (i + 1) + 0.00013 * p, (p, i)) for i in range(rounds // 2)]
            for p in (0, 3)
        }
        result = run_abcast(
            make_wabcast, 4, schedule, seed=3, horizon=3.0,
            delay=UniformDelay(50e-6, 200e-6),
            datagram_delay=UniformDelay(50e-6, 300e-6),
        )
        for host in result.hosts.values():
            abcast = host.abcast
            assert abcast.rounds_completed >= rounds
            held = (
                [k for k, _ in abcast._first]
                + [k for k, _ in abcast._checks]
                + list(abcast._decisions)
            )
            assert all(k >= abcast.round for k in held)
            assert len(held) <= 3

    def test_late_decision_restarts_the_current_round_once(self):
        # Pins a known defect (docs/PROTOCOLS.md, "WABCast and late
        # decisions"): the first WabDecision for an already-delivered round
        # restarts the current inner round — a second w-broadcast and a
        # second check in instance (2, 1) — and a repeat does nothing.
        env = ScriptEnv(pid=0, n=4)
        abcast = WabCast(env)
        first = abcast.a_broadcast("x")
        abcast.a_broadcast("y")
        batch = frozenset({first})
        abcast.on_message(1, WabDecision(1, batch))
        assert abcast.round == 2 and abcast.delivered_ids == [first.msg_id]
        (own,) = [m for dst, m in env.sent if dst == 0 and isinstance(m, WabMessage)
                  and m.instance == (2, 1)]
        abcast.on_message(0, own)  # the round's first w-delivery: vote

        def instance_traffic():
            mine = [m for dst, m in env.sent if dst == 0]
            return (
                sum(isinstance(m, WabMessage) and m.instance == (2, 1) for m in mine),
                sum(isinstance(m, WabCheck) and (m.round, m.inner) == (2, 1) for m in mine),
            )

        assert instance_traffic() == (1, 1)
        abcast.on_message(2, WabDecision(1, batch))
        assert instance_traffic() == (2, 2)
        assert (abcast.round, abcast.inner, abcast.inner_rounds_run) == (2, 1, 3)
        abcast.on_message(3, WabDecision(1, batch))
        assert instance_traffic() == (2, 2)
        assert abcast.inner_rounds_run == 3
        # The late decision is remembered by round number only.
        assert abcast._decisions == {}
        assert all(k >= 2 for k, _ in abcast._first)

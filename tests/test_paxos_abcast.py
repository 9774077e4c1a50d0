"""Protocol tests for the Multi-Paxos atomic broadcast baseline."""

import pytest

from repro.core.abcast_base import AppMessage
from repro.errors import ConfigurationError
from repro.harness.abcast_runner import run_abcast
from repro.protocols import MultiPaxosAbcast
from repro.protocols.paxos_abcast import CatchUpReply, LogAccepted
from repro.sim.network import ConstantDelay, UniformDelay
from repro.sim.trace import Tracer

from tests.conftest import make_multipaxos
from tests.test_protocol_guards import FixedOmega, ScriptEnv

D = ConstantDelay(100e-6)


def assert_no_votes_for_chosen_slots(result):
    """A learner holds vote sets only for slots it has not chosen yet."""
    for pid, host in result.hosts.items():
        module = host.abcast
        assert module._votes.keys().isdisjoint(module._chosen), f"p{pid}"


def assert_phase1_ran(result, leader):
    """``leader`` took over with a ballot of its own (phase 1), not ballot 0."""
    assert result.hosts[leader].abcast._leading
    assert result.hosts[leader].abcast._ballot > 0


class TestSteadyState:
    def test_non_leader_sender_three_delta(self):
        result = run_abcast(
            make_multipaxos, 3, {1: [(0.001, "m")]}, seed=1, delay=D, datagram_delay=D, horizon=5.0
        )
        assert result.latency_of((1, 1)) == pytest.approx(3 * 100e-6, rel=0.01)

    def test_leader_sender_skips_the_relay(self):
        result = run_abcast(
            make_multipaxos, 3, {0: [(0.001, "m")]}, seed=2, delay=D, datagram_delay=D, horizon=5.0
        )
        assert result.latency_of((0, 1)) == pytest.approx(2 * 100e-6, rel=0.01)

    def test_instance_order_is_delivery_order(self):
        schedule = {1: [(0.002 * (i + 1), f"s{i}") for i in range(10)]}
        result = run_abcast(make_multipaxos, 3, schedule, seed=3, horizon=5.0)
        assert result.deliveries[2] == [(1, i + 1) for i in range(10)]

    def test_batching_under_load(self):
        # Requests arriving while an instance is in flight share a batch.
        schedules = {p: [(0.001, f"b{p}.{i}") for i in range(5)] for p in range(3)}
        result = run_abcast(make_multipaxos, 3, schedules, seed=4, horizon=5.0)
        assert result.delivered_count == 15
        # All processes deliver identical sequences.
        assert len({tuple(s) for s in result.deliveries.values()}) == 1

    def test_message_complexity_matches_table1(self):
        # One uncontended decision: 1 request + n accepts + n^2 accepteds.
        result = run_abcast(
            make_multipaxos, 3, {1: [(0.001, "m")]}, seed=5, delay=D, datagram_delay=D, horizon=5.0
        )
        kinds = result.network_stats["by_kind"]
        assert kinds["Request"] == 1
        assert kinds["LogAccept"] == 3
        assert kinds["LogAccepted"] == 9


class TestLeaderFailover:
    def test_leader_crash_before_any_request(self):
        result = run_abcast(
            make_multipaxos,
            3,
            {1: [(0.01, "after-failover")]},
            seed=6,
            crash_at={0: 0.001},
            detection_delay=0.002,
            horizon=10.0,
            require_all_delivered=False,
        )
        for pid in (1, 2):
            assert result.deliveries[pid] == [(1, 1)]

    def test_leader_crash_mid_stream_no_loss_for_survivors(self):
        schedules = {1: [(0.001 * (i + 1), f"m{i}") for i in range(10)]}
        result = run_abcast(
            make_multipaxos,
            3,
            schedules,
            seed=7,
            crash_at={0: 0.0045},
            detection_delay=0.003,
            horizon=10.0,
            require_all_delivered=False,
        )
        # Pending requests are re-sent to the new leader: every message the
        # survivor a-broadcast is eventually delivered, exactly once.
        for pid in (1, 2):
            assert [m for m in result.deliveries[pid] if m[0] == 1] == [
                (1, i + 1) for i in range(10)
            ]
        assert_phase1_ran(result, leader=1)
        assert_no_votes_for_chosen_slots(result)

    def test_no_duplicates_across_failover(self):
        schedules = {
            1: [(0.001 * (i + 1), f"x{i}") for i in range(12)],
            2: [(0.0013 * (i + 1), f"y{i}") for i in range(9)],
        }
        result = run_abcast(
            make_multipaxos,
            3,
            schedules,
            seed=8,
            crash_at={0: 0.006},
            detection_delay=0.003,
            horizon=10.0,
            require_all_delivered=False,
        )
        for seq in result.deliveries.values():
            assert len(seq) == len(set(seq))

    def test_double_failover_n5(self):
        schedules = {3: [(0.002 * (i + 1), f"m{i}") for i in range(8)]}
        result = run_abcast(
            make_multipaxos,
            5,
            schedules,
            seed=9,
            crash_at={0: 0.003, 1: 0.009},
            detection_delay=0.002,
            horizon=20.0,
            require_all_delivered=False,
        )
        for pid in (2, 3, 4):
            assert [m for m in result.deliveries[pid] if m[0] == 3] == [
                (3, i + 1) for i in range(8)
            ]
        assert_phase1_ran(result, leader=2)
        assert_no_votes_for_chosen_slots(result)

    def test_f_bound_enforced(self):
        with pytest.raises(ConfigurationError):
            run_abcast(
                lambda pid, env, oracle, host: MultiPaxosAbcast(
                    env, oracle.omega(pid), f=2
                ),
                3,
                {0: [(0.001, "x")]},
                seed=1,
            )

    def test_jitter_sweep_safety(self):
        schedules = {p: [(0.0005 * (i + 1), f"j{p}.{i}") for i in range(5)] for p in range(3)}
        for seed in range(6):
            run_abcast(
                make_multipaxos,
                3,
                schedules,
                seed=seed,
                delay=UniformDelay(50e-6, 400e-6),
                horizon=10.0,
            )


class TestSlotLifetime:
    """A slot's votes live until the slot is chosen (docs/PROTOCOLS.md)."""

    def test_long_run_holds_votes_for_unchosen_slots_only(self):
        slots = 2000
        modules, probes, overlaps, peak = {}, [], [], [0]

        def probe(sim):
            probes.append(sim.now)
            for pid, module in modules.items():
                overlap = module._votes.keys() & module._chosen.keys()
                if overlap:
                    overlaps.append((sim.now, pid, sorted(overlap)[:3]))
                peak[0] = max(peak[0], len(module._votes))
            if sim.now < 2.5:
                sim.schedule(0.0007, probe, sim)

        def make(pid, env, oracle, host):
            if not modules:
                oracle.sim.schedule(0.0007, probe, oracle.sim)
            modules[pid] = MultiPaxosAbcast(env, oracle.omega(pid))
            return modules[pid]

        # Two senders, one slot per message: each request reaches the
        # leader after the previous slot is chosen, so nothing is batched.
        schedule = {
            p: [(0.002 * (i + 1) + 0.001 * (p - 1), (p, i)) for i in range(slots // 2)]
            for p in (1, 2)
        }
        result = run_abcast(
            make, 3, schedule, seed=3, horizon=3.0, delay=UniformDelay(50e-6, 200e-6)
        )

        assert len(probes) > 3000  # sampled all through the run
        assert overlaps == []
        assert 0 < peak[0] <= 2  # the slots in flight, however long the run
        for module in modules.values():
            assert len(module._chosen) == slots
            assert module._votes == {}

    @pytest.mark.parametrize(
        "ballot, batch",
        [(0, "same"), (0, "other"), (4, "same")],
        ids=["same-ballot", "same-ballot-other-batch", "higher-ballot"],
    )
    def test_accepted_for_a_chosen_slot_touches_nothing(self, ballot, batch):
        env = ScriptEnv(pid=2, n=3)
        module = MultiPaxosAbcast(env, FixedOmega(0))
        delivered = []
        module.set_on_deliver(delivered.append)
        tracer = Tracer()
        module.enable_obs(tracer)
        chosen = frozenset({AppMessage(1, 1, "m", 0.0)})
        module.on_message(0, LogAccepted(0, 1, chosen))
        module.on_message(1, LogAccepted(0, 1, chosen))
        assert module._chosen == {1: chosen} and module._votes == {}
        assert [m.msg_id for m in delivered] == [(1, 1)]

        late = chosen if batch == "same" else frozenset({AppMessage(0, 9, "x", 0.0)})
        sent, records = len(env.sent), len(tracer.records)
        for src in (2, 0, 1):
            module.on_message(src, LogAccepted(ballot, 1, late))
        assert module._votes == {}
        assert module._chosen == {1: chosen}
        assert len(env.sent) == sent and len(tracer.records) == records
        assert len(delivered) == 1

    def test_catch_up_clears_the_votes_of_the_slots_it_chooses(self):
        env = ScriptEnv(pid=2, n=3)
        module = MultiPaxosAbcast(env, FixedOmega(0))
        first = frozenset({AppMessage(1, 1, "a", 0.0)})
        second = frozenset({AppMessage(1, 2, "b", 0.0)})
        module.on_message(0, LogAccepted(0, 1, first))
        module.on_message(0, LogAccepted(0, 3, second))
        assert set(module._votes) == {1, 3}
        module.on_message(1, CatchUpReply(((1, first), (2, second))))
        assert set(module._votes) == {3}
        assert module._next_deliver == 3
        assert [m.msg_id for m in module.delivered] == [(1, 1), (1, 2)]

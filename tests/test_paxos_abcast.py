"""Protocol tests for the Multi-Paxos atomic broadcast baseline."""

import pytest

from repro.core.abcast_base import AppMessage
from repro.engine import RsmRunSpec, TopologySpec
from repro.engine.spec import PAPER_LAN
from repro.errors import ConfigurationError
from repro.fd.oracle import DeliveryFloor, OracleFailureDetector
from repro.harness.abcast_runner import AbcastHost, run_abcast
from repro.protocols import MultiPaxosAbcast
from repro.protocols.paxos_abcast import CatchUpReply, LogAccept, LogAccepted
from repro.rsm.runner import run_rsm
from repro.sim.kernel import Simulator
from repro.sim.network import ConstantDelay, Network, UniformDelay
from repro.sim.node import Node
from repro.sim.process import Scoped
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
        "ballot, batch, below_floor",
        [(0, "same", False), (0, "other", False), (4, "same", False), (0, "same", True)],
        ids=["same-ballot", "same-ballot-other-batch", "higher-ballot", "below-floor"],
    )
    def test_accepted_for_a_chosen_slot_touches_nothing(self, ballot, batch, below_floor):
        env = ScriptEnv(pid=2, n=3)
        floor = DeliveryFloor(env.peers)
        if below_floor:
            # The other members are past slot 1: delivering it raises the
            # floor to 2, and slot 1 leaves the log.
            floor.advance(0, 2)
            floor.advance(1, 2)
        module = MultiPaxosAbcast(env, FixedOmega(0), floor=floor)
        delivered = []
        module.set_on_deliver(delivered.append)
        tracer = Tracer()
        module.enable_obs(tracer)
        chosen = frozenset({AppMessage(1, 1, "m", 0.0)})
        module.on_message(0, LogAccepted(0, 1, chosen))
        module.on_message(1, LogAccepted(0, 1, chosen))
        kept = {} if below_floor else {1: chosen}
        assert module._chosen == kept and module._votes == {}
        assert [m.msg_id for m in delivered] == [(1, 1)]
        assert floor.value == (2 if below_floor else 1)

        late = chosen if batch == "same" else frozenset({AppMessage(0, 9, "x", 0.0)})
        sent, records = len(env.sent), len(tracer.records)
        for src in (2, 0, 1):
            module.on_message(src, LogAccepted(ballot, 1, late))
        assert module._votes == {}
        assert module._chosen == kept
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
        assert module.delivered_ids == [(1, 1), (1, 2)]


class TestDeliveryFloor:
    """The group's modules keep their log from the delivery floor up."""

    def test_floor_is_the_slowest_members_next_slot(self):
        floor = DeliveryFloor((0, 1, 2))
        assert floor.advance(0, 5) == 1
        assert floor.advance(1, 3) == 1
        assert floor.advance(2, 4) == 3  # p2 held the minimum
        assert floor.advance(0, 9) == 3  # p0 did not hold it
        assert floor.advance(1, 9) == 4

    def test_new_leader_that_lags_recovers_a_delivered_slot_in_phase_1(self):
        # Slot 3 is accepted by p0 and p1 and delivered by p1, while a link
        # filter holds every ballot-0 message of slot 3 to p2.  p1 is then
        # wrongly suspected and p0 crashes, so p2 leads with slot 3 missing.
        # Its phase 1 starts at slot 3, and p1's promise must still carry
        # slot 3's batch: the floor is p2's next slot, not p1's.
        slot = 3
        sim = Simulator(seed=1)
        network = Network(sim, delay=ConstantDelay(1e-3))
        pids = [0, 1, 2]
        oracle = OracleFailureDetector(sim, pids)
        hosts, nodes = {}, {}
        for pid in pids:
            hosts[pid] = AbcastHost(
                module_factory=lambda h, env, pid=pid: MultiPaxosAbcast(
                    env, oracle.omega(pid), floor=oracle.delivery_floor
                ),
                schedule=[(0.01 * (i + 1), f"m{i}") for i in range(6)] if pid == 1 else (),
            )
            nodes[pid] = Node(sim, network, pid, pids, hosts[pid])
        oracle.watch(nodes)

        def hold(envelope):
            msg = envelope.payload
            msg = msg.inner if isinstance(msg, Scoped) else msg
            return not (
                envelope.dst == 2
                and isinstance(msg, (LogAccept, LogAccepted))
                and msg.ballot == 0
                and msg.instance == slot
            )

        network.add_filter(hold)
        for node in nodes.values():
            node.start()
        sim.run(until=0.045)
        p1, p2 = hosts[1].abcast, hosts[2].abcast
        assert p1._next_deliver > slot + 1 and p2._next_deliver == slot
        assert oracle.delivery_floor.value == slot

        oracle.on_crash(1)
        nodes[0].crash()
        assert oracle.current_leader() == 2
        sim.run(until=0.2)
        assert p2._leading and p2._ballot > 0  # phase 1 ran
        expected = [(1, i + 1) for i in range(6)]
        assert p1.delivered_ids == p2.delivered_ids == expected

    @pytest.mark.parametrize("scale", [1, 4])
    def test_two_group_log_stays_within_the_in_flight_window(self, scale, monkeypatch):
        # Peak table sizes over the whole run, sampled after every message a
        # module handles: the same bound at 1x and 4x the duration.
        peak = {"accepted": 0, "chosen": 0}
        on_message = MultiPaxosAbcast.on_message

        def spy(self, src, msg):
            on_message(self, src, msg)
            peak["accepted"] = max(peak["accepted"], len(self._accepted))
            peak["chosen"] = max(peak["chosen"], len(self._chosen))

        monkeypatch.setattr(MultiPaxosAbcast, "on_message", spy)
        spec = RsmRunSpec(
            "multipaxos",
            rate=400,
            duration=0.5 * scale,
            clients=8,
            keys=32,
            topology=TopologySpec(groups=2, group_size=3),
            cluster=PAPER_LAN,
        )
        result = run_rsm(spec)

        assert result.committed > 150 * scale
        # One slot in flight per leader, plus the slowest member's lag.
        assert 0 < peak["accepted"] <= 4 and 0 < peak["chosen"] <= 4
        for pid, replica in result.replicas.items():
            module = replica.abcast
            assert module._next_deliver > 70 * scale, f"p{pid}"
            assert len(module._accepted) <= 4 and len(module._chosen) <= 4, f"p{pid}"

"""Crash-recovery tests: stable storage, node restarts, Multi-Paxos catch-up.

The paper's section 2 notes that Paxos-like protocols support the
crash-recovery model of Aguilera et al. [1]; this extension implements it
for the Multi-Paxos baseline: acceptor state and delivery progress persist
in a :class:`~repro.sim.storage.StableStore`, and a recovered incarnation
catches up on the chosen log before resuming.
"""

import pytest

from repro.errors import ConfigurationError
from repro.fd.oracle import OracleFailureDetector
from repro.harness.abcast_runner import AbcastHost
from repro.harness.checkers import check_uniform_total_order
from repro.protocols import MultiPaxosAbcast
from repro.sim.kernel import Simulator
from repro.sim.network import ConstantDelay, Network, UniformDelay
from repro.sim.node import Node
from repro.sim.process import Process
from repro.sim.storage import StableStore, StorageFabric


class TestStableStore:
    def test_put_get_roundtrip(self):
        store = StableStore()
        store.put("k", {"a": 1})
        assert store.get("k") == {"a": 1}
        assert store.get("missing", 42) == 42
        assert "k" in store

    def test_counters(self):
        store = StableStore()
        store.put("a", 1)
        store.get("a")
        assert store.writes == 1 and store.reads == 1

    def test_fabric_memoizes_per_pid(self):
        fabric = StorageFabric()
        assert fabric.store(3) is fabric.store(3)
        assert fabric.store(3) is not fabric.store(4)


class Beeper(Process):
    """Minimal process that records its incarnation's activity."""

    def __init__(self, tag):
        self.tag = tag
        self.events = []

    def on_start(self):
        self.events.append(("start", self.tag, self.env.now()))
        self.env.set_timer("beep", 0.05)

    def on_timer(self, name):
        self.events.append(("beep", self.tag, self.env.now()))
        self.env.broadcast(("beep", self.tag))

    def on_message(self, src, msg):
        self.events.append(("msg", src, msg))


class TestNodeRecovery:
    def build(self):
        sim = Simulator(seed=0)
        net = Network(sim, delay=ConstantDelay(1e-3))
        procs = {0: Beeper("first"), 1: Beeper("peer")}
        nodes = {
            pid: Node(sim, net, pid, [0, 1], procs[pid]) for pid in (0, 1)
        }
        for node in nodes.values():
            node.start()
        return sim, net, nodes, procs

    def test_recover_runs_fresh_process(self):
        sim, net, nodes, procs = self.build()
        nodes[0].crash_at(0.01)
        second = Beeper("second")
        nodes[0].recover_at(0.1, lambda: second)
        sim.run(until=0.3)
        assert ("start", "second", pytest.approx(0.1)) in second.events
        assert any(e[0] == "beep" for e in second.events)

    def test_recover_requires_crashed_node(self):
        sim, net, nodes, procs = self.build()
        with pytest.raises(ConfigurationError):
            nodes[0].recover(Beeper("nope"))

    def test_old_incarnation_cannot_send_after_recovery(self):
        sim, net, nodes, procs = self.build()
        old = procs[0]
        nodes[0].crash_at(0.01)
        nodes[0].recover_at(0.1, lambda: Beeper("second"))
        sim.run(until=0.2)
        before = net.stats.sent
        old.env.broadcast(("zombie",))  # stale incarnation: must be dropped
        assert net.stats.sent == before
        assert not any(
            e[0] == "msg" and e[2] == ("zombie",) for e in procs[1].events
        )

    def test_crashed_node_cannot_send_either(self):
        sim, net, nodes, procs = self.build()
        nodes[0].crash()
        before = net.stats.sent
        procs[0].env.send(1, "ghost")
        assert net.stats.sent == before


def recovery_cluster(seed=1, delay=ConstantDelay(5e-4), shared_floor=False, messages=12):
    """3-node Multi-Paxos cluster with stable storage for everyone; p1
    a-broadcasts ``messages`` messages, one per millisecond.

    ``shared_floor`` hands every module the oracle's delivery floor, as the
    registry factory does; otherwise each keeps its whole log."""
    sim = Simulator(seed=seed)
    network = Network(sim, delay=delay)
    pids = [0, 1, 2]
    oracle = OracleFailureDetector(sim, pids)
    fabric = StorageFabric()
    floor = oracle.delivery_floor if shared_floor else None

    def make_host(pid, schedule=()):
        return AbcastHost(
            module_factory=lambda h, env, pid=pid: MultiPaxosAbcast(
                env, oracle.omega(pid), storage=fabric.store(pid), floor=floor
            ),
            schedule=schedule,
        )

    hosts, nodes = {}, {}
    schedules = {1: [(0.001 * (i + 1), f"m{i}") for i in range(messages)]}
    for pid in pids:
        hosts[pid] = make_host(pid, schedules.get(pid, ()))
        nodes[pid] = Node(sim, network, pid, pids, hosts[pid])
    oracle.watch(nodes)
    for node in nodes.values():
        node.start()
    return sim, nodes, hosts, make_host, oracle


def assert_chosen_slots_hold_no_votes(recovered, survivor):
    """No vote set for a chosen slot, and every choice the survivor's."""
    assert recovered._votes.keys().isdisjoint(recovered._chosen)
    assert survivor._votes.keys().isdisjoint(survivor._chosen)
    for slot, batch in recovered._chosen.items():
        assert survivor._chosen[slot] == batch


class TestMultiPaxosRecovery:
    def test_follower_recovers_and_catches_up(self):
        sim, nodes, hosts, make_host, oracle = recovery_cluster(seed=2)
        nodes[2].crash_at(0.004)
        new_host = {}

        def rebuild():
            new_host["h"] = make_host(2)
            return new_host["h"]

        nodes[2].recover_at(0.05, rebuild)
        sim.run(until=2.0)

        sequences = {
            0: hosts[0].abcast.delivered_ids,
            1: hosts[1].abcast.delivered_ids,
        }
        # The recovered incarnation resumes AFTER what its previous life
        # already delivered (persisted next_deliver) — its sequence is the
        # suffix; checking order over ids it shares with the others:
        recovered = new_host["h"].abcast.delivered_ids
        full = sequences[0]
        assert [m for m in full if m in set(recovered)] == recovered
        assert len(full) == 12
        # And it reached the log's end.
        assert recovered and recovered[-1] == full[-1]
        assert_chosen_slots_hold_no_votes(new_host["h"].abcast, hosts[0].abcast)

    def test_crashed_member_pins_the_shared_floor_so_catch_up_is_served(self):
        sim, nodes, hosts, make_host, oracle = recovery_cluster(
            seed=2, shared_floor=True
        )
        floor = oracle.delivery_floor
        nodes[2].crash_at(0.004)
        new_host = {}

        def rebuild():
            new_host["h"] = make_host(2)
            return new_host["h"]

        nodes[2].recover_at(0.05, rebuild)
        sim.run(until=0.049)
        # p2 is down and the others delivered all 12 slots: the floor stays
        # at p2's last next slot, and the survivors keep the log from there.
        pinned = hosts[2].abcast._next_deliver
        assert 1 < pinned < 13 == hosts[0].abcast._next_deliver
        assert floor.value == pinned
        for pid in (0, 1):
            assert sorted(hosts[pid].abcast._chosen) == list(range(pinned, 13))

        sim.run(until=1.0)
        recovered = new_host["h"].abcast
        assert recovered._next_deliver == 13
        assert recovered.delivered_ids == hosts[0].abcast.delivered_ids[pinned - 1:]
        assert floor.value == 13
        # The next slot anyone delivers sweeps the log below the new floor.
        hosts[1].abcast.a_broadcast("after")
        sim.run(until=2.0)
        for module in (hosts[0].abcast, hosts[1].abcast, recovered):
            assert module._next_deliver == 14
            assert set(module._chosen) <= {13} and set(module._accepted) <= {13}

    def test_catch_up_of_a_slot_with_votes_drops_them(self, monkeypatch):
        # Jittered links and a rejoin in the middle of slot 5: one LogAccepted
        # of slot 5 reaches the new incarnation before the CatchUpReply that
        # chooses it.
        voted_then_caught_up = []
        catch_up = MultiPaxosAbcast._on_catchup_reply

        def spy(self, src, msg):
            voted_then_caught_up.extend(i for i, _ in msg.entries if i in self._votes)
            catch_up(self, src, msg)

        monkeypatch.setattr(MultiPaxosAbcast, "_on_catchup_reply", spy)
        sim, nodes, hosts, make_host, oracle = recovery_cluster(
            seed=2, delay=UniformDelay(1e-4, 9e-4)
        )
        nodes[2].crash_at(0.004)
        new_host = {}

        def rebuild():
            new_host["h"] = make_host(2)
            return new_host["h"]

        nodes[2].recover_at(0.0069, rebuild)
        sim.run(until=2.0)

        assert voted_then_caught_up == [5]
        recovered = new_host["h"].abcast
        assert_chosen_slots_hold_no_votes(recovered, hosts[0].abcast)
        full = hosts[0].abcast.delivered_ids
        assert len(full) == 12 and recovered.delivered_ids
        assert full[-len(recovered.delivered_ids):] == recovered.delivered_ids

    def test_recovered_leader_reacquires_leadership_safely(self):
        sim, nodes, hosts, make_host, oracle = recovery_cluster(seed=3)
        nodes[0].crash_at(0.003)
        new_host = {}

        def rebuild():
            new_host["h"] = make_host(0)
            return new_host["h"]

        nodes[0].recover_at(0.02, rebuild)
        sim.run(until=2.0)

        check_uniform_total_order(
            {1: hosts[1].abcast.delivered_ids, 2: hosts[2].abcast.delivered_ids}
        )
        assert len(hosts[1].abcast.delivered_ids) == 12
        assert len(hosts[2].abcast.delivered_ids) == 12
        # No message delivered twice at the survivors despite the leader's
        # crash, re-election and ballot changes.
        for seq in (hosts[1].abcast.delivered_ids, hosts[2].abcast.delivered_ids):
            assert len(seq) == len(set(seq))

    def test_no_duplicate_delivery_across_incarnations(self):
        sim, nodes, hosts, make_host, oracle = recovery_cluster(seed=4)
        nodes[2].crash_at(0.006)
        incarnations = []

        def rebuild():
            host = make_host(2)
            incarnations.append(host)
            return host

        nodes[2].recover_at(0.03, rebuild)
        sim.run(until=2.0)
        first_life = hosts[2].abcast.delivered_ids
        second_life = incarnations[0].abcast.delivered_ids
        assert not (set(first_life) & set(second_life))

    def test_acceptor_promises_survive_recovery(self):
        # The persisted acceptor state must prevent a recovered node from
        # regressing its promise (safety under repeated crashes).
        sim, nodes, hosts, make_host, oracle = recovery_cluster(seed=5)
        nodes[0].crash_at(0.003)  # leader crashes; p1 takes over with ballot > 0
        sim.run(until=0.5)
        promised_before = hosts[2].abcast._promised
        assert promised_before > 0
        nodes[2].crash()
        replacement = make_host(2)
        nodes[2].recover(replacement)
        sim.run(until=0.6)
        assert replacement.abcast._promised >= promised_before


class TestLearnerPersistence:
    """Each learner write holds only the ids delivered since the last one."""

    def _run(self, monkeypatch, messages):
        written = []
        real_put = StableStore.put

        def put(store, key, value):
            if key.startswith("delivered_ids"):
                written.append(len(value))
            real_put(store, key, value)

        monkeypatch.setattr(StableStore, "put", put)
        sim, nodes, hosts, make_host, oracle = recovery_cluster(seed=3, messages=messages)
        horizon = 0.001 * messages
        nodes[2].crash_at(0.3 * horizon)
        reborn = []

        def rebuild():
            reborn.append(make_host(2))
            return reborn[0]

        nodes[2].recover_at(0.6 * horizon, rebuild)
        sim.run(until=horizon + 1.0)
        lives = list(hosts.values()) + reborn
        assert len(hosts[0].abcast.delivered_ids) == messages
        assert reborn[0].abcast.delivered_ids[-1] == hosts[0].abcast.delivered_ids[-1]
        return sum(written), sum(len(host.abcast.delivered_ids) for host in lives)

    def test_ids_written_grow_linearly_with_deliveries(self, monkeypatch):
        short_written, short_delivered = self._run(monkeypatch, 40)
        long_written, long_delivered = self._run(monkeypatch, 160)
        # Every delivered id is written once, by the incarnation that
        # delivered it (a full-set write per delivery is quadratic).
        assert short_written == short_delivered
        assert long_written == long_delivered
        assert long_written / short_written < 2 * long_delivered / short_delivered

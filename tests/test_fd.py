"""Unit tests for the failure detectors: oracle and heartbeat flavours."""

import pytest

from repro.errors import ConfigurationError
from repro.fd.base import omega_from_suspects
from repro.fd.heartbeat import Heartbeat, HeartbeatSuspector
from repro.fd.oracle import OracleFailureDetector, ScriptedOmega, ScriptedSuspects
from repro.sim.kernel import Simulator
from repro.sim.network import ConstantDelay, Network
from repro.sim.node import Node
from repro.sim.process import HostProcess


class TestOracleDetector:
    def test_initial_leader_is_lowest_pid(self):
        sim = Simulator()
        oracle = OracleFailureDetector(sim, [0, 1, 2, 3])
        assert oracle.omega(2).leader() == 0
        assert oracle.suspect(2).suspected() == frozenset()

    def test_initially_crashed_reflected_from_the_start(self):
        sim = Simulator()
        oracle = OracleFailureDetector(sim, [0, 1, 2], initially_crashed=[0])
        assert oracle.omega(1).leader() == 1
        assert oracle.suspect(1).suspected() == frozenset({0})

    def test_unknown_initially_crashed_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            OracleFailureDetector(sim, [0, 1], initially_crashed=[9])

    def test_crash_updates_output_immediately_with_zero_delay(self):
        sim = Simulator()
        oracle = OracleFailureDetector(sim, [0, 1, 2])
        oracle.on_crash(0)
        assert oracle.omega(1).leader() == 1
        assert 0 in oracle.suspect(1).suspected()

    def test_detection_delay_postpones_output_change(self):
        sim = Simulator()
        oracle = OracleFailureDetector(sim, [0, 1], detection_delay=0.5)
        oracle.on_crash(0)
        assert oracle.omega(1).leader() == 0
        sim.run()
        assert sim.now == pytest.approx(0.5)
        assert oracle.omega(1).leader() == 1

    def test_subscribers_notified_on_leader_change(self):
        sim = Simulator()
        oracle = OracleFailureDetector(sim, [0, 1, 2])
        pokes = []
        oracle.omega(1).subscribe(lambda: pokes.append("omega"))
        oracle.suspect(2).subscribe(lambda: pokes.append("suspect"))
        oracle.on_crash(0)
        assert "omega" in pokes and "suspect" in pokes

    def test_no_omega_notification_when_leader_unchanged(self):
        sim = Simulator()
        oracle = OracleFailureDetector(sim, [0, 1, 2])
        pokes = []
        oracle.omega(0).subscribe(lambda: pokes.append("omega"))
        oracle.on_crash(2)  # leader stays 0
        assert pokes == []

    def test_duplicate_crash_ignored(self):
        sim = Simulator()
        oracle = OracleFailureDetector(sim, [0, 1])
        oracle.on_crash(0)
        pokes = []
        oracle.omega(1).subscribe(lambda: pokes.append(1))
        oracle.on_crash(0)
        assert pokes == []

    def test_watch_wires_node_crashes(self):
        sim = Simulator()
        net = Network(sim, delay=ConstantDelay(1e-3))
        nodes = {
            pid: Node(sim, net, pid, [0, 1], HostProcess()) for pid in (0, 1)
        }
        oracle = OracleFailureDetector(sim, [0, 1])
        oracle.watch(nodes)
        nodes[0].crash()
        assert oracle.omega(1).leader() == 1

    def test_negative_detection_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            OracleFailureDetector(sim, [0, 1], detection_delay=-1)


class TestScriptedViews:
    def test_scripted_omega_replays_timeline(self):
        sim = Simulator()
        view = ScriptedOmega(sim, [(0.0, 0), (1.0, 2), (2.0, 1)])
        changes = []
        view.subscribe(lambda: changes.append((sim.now, view.leader())))
        assert view.leader() == 0
        sim.run()
        assert changes == [(1.0, 2), (2.0, 1)]

    def test_scripted_suspects_replays_timeline(self):
        sim = Simulator()
        view = ScriptedSuspects(sim, [(0.0, set()), (1.0, {3})])
        assert view.suspected() == frozenset()
        sim.run()
        assert view.suspected() == frozenset({3})

    def test_script_must_start_at_zero(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            ScriptedOmega(sim, [(1.0, 0)])

    def test_script_must_be_ordered(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            ScriptedOmega(sim, [(0.0, 0), (2.0, 1), (1.0, 2)])

    def test_empty_script_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            ScriptedSuspects(sim, [])

    def test_no_notification_for_identical_output(self):
        sim = Simulator()
        view = ScriptedOmega(sim, [(0.0, 0), (1.0, 0)])
        changes = []
        view.subscribe(lambda: changes.append(1))
        sim.run()
        assert changes == []


class FdHost(HostProcess):
    """Host running only a heartbeat detector."""

    def __init__(self, **params):
        super().__init__()
        self.params = params
        self.fd = None

    def on_start(self):
        self.fd = self.attach(("fd",), lambda env: HeartbeatSuspector(env, **self.params))
        self.fd.on_start()


def heartbeat_cluster(n=3, delay=ConstantDelay(1e-3), **params):
    sim = Simulator(seed=3)
    net = Network(sim, delay=delay)
    pids = list(range(n))
    hosts = {pid: FdHost(**params) for pid in pids}
    nodes = {pid: Node(sim, net, pid, pids, hosts[pid]) for pid in pids}
    for node in nodes.values():
        node.start()
    return sim, nodes, hosts


class TestHeartbeatSuspector:
    def test_no_suspicions_in_quiet_run(self):
        sim, nodes, hosts = heartbeat_cluster(period=0.01, initial_timeout=0.05)
        sim.run(until=1.0)
        for host in hosts.values():
            assert host.fd.suspected() == frozenset()

    def test_crashed_process_eventually_suspected_by_all(self):
        sim, nodes, hosts = heartbeat_cluster(period=0.01, initial_timeout=0.05)
        nodes[2].crash_at(0.2)
        sim.run(until=1.0)
        for pid in (0, 1):
            assert hosts[pid].fd.suspected() == frozenset({2})

    def test_suspicion_notifies_subscribers(self):
        sim, nodes, hosts = heartbeat_cluster(period=0.01, initial_timeout=0.05)
        changes = []
        sim.schedule(0.0, lambda: hosts[0].fd.subscribe(lambda: changes.append(sim.now)))
        nodes[1].crash_at(0.1)
        sim.run(until=1.0)
        assert changes  # at least the suspicion of node 1

    def test_false_suspicion_recovers_and_raises_timeout(self):
        # A long one-off message delay causes a false suspicion; the
        # detector must trust the peer again and bump its timeout.
        sim, nodes, hosts = heartbeat_cluster(
            period=0.02, initial_timeout=0.05, timeout_increment=0.05
        )
        net = nodes[0].network
        # Delay all of node 1's heartbeats to node 0 during [0.1, 0.25].
        remove = [None]

        def delay_window(env):
            if env.src == 1 and env.dst == 0 and 0.1 <= sim.now <= 0.25:
                return 0.2
            return True

        net.add_filter(delay_window)
        sim.run(until=2.0)
        assert hosts[0].fd.suspected() == frozenset()
        assert hosts[0].fd.false_suspicions >= 1
        assert hosts[0].fd._timeouts[1] > 0.05

    def test_derived_omega_tracks_lowest_unsuspected(self):
        sim, nodes, hosts = heartbeat_cluster(period=0.01, initial_timeout=0.05)
        omegas = {}
        changes = []

        def wire():
            for pid, host in hosts.items():
                omegas[pid] = host.fd.omega()
            omegas[1].subscribe(lambda: changes.append((sim.now, omegas[1].leader())))

        sim.schedule(0.0, wire)
        nodes[0].crash_at(0.2)
        sim.run(until=1.0)
        assert omegas[1].leader() == 1
        assert omegas[2].leader() == 1
        assert changes and changes[-1][1] == 1

    def test_parameter_validation(self):
        sim, nodes, hosts = heartbeat_cluster()
        sim.run(until=0.01)  # let on_start attach the module
        env = hosts[0].fd.env
        with pytest.raises(ConfigurationError):
            HeartbeatSuspector(env, period=-1)
        with pytest.raises(ConfigurationError):
            HeartbeatSuspector(env, period=0.1, initial_timeout=0.05)

    def test_heartbeats_carry_increasing_seq(self):
        sim, nodes, hosts = heartbeat_cluster(period=0.01, initial_timeout=0.05)
        sim.run(until=0.001)  # let on_start attach the module
        seen = []
        original = hosts[1].fd.on_message

        def spy(src, msg):
            if isinstance(msg, Heartbeat) and src == 0:
                seen.append(msg.seq)
            original(src, msg)

        # The host dispatches dynamically, so patching the attribute works.
        hosts[1].fd.on_message = spy
        sim.run(until=0.2)
        assert seen == sorted(seen)
        assert len(seen) >= 10


class TestDerivedOmega:
    def test_all_suspected_yields_none(self):
        sim = Simulator()
        view = ScriptedSuspects(sim, [(0.0, {0, 1, 2})])
        omega = omega_from_suspects(view, (0, 1, 2))
        assert omega.leader() is None

    def test_derived_omega_only_notifies_on_leader_change(self):
        sim = Simulator()
        view = ScriptedSuspects(sim, [(0.0, set()), (1.0, {2}), (2.0, {0})])
        omega = omega_from_suspects(view, (0, 1, 2))
        changes = []
        omega.subscribe(lambda: changes.append(omega.leader()))
        sim.run()
        assert changes == [1]  # suspecting 2 changes nothing; suspecting 0 does


def _oracle_views():
    oracle = OracleFailureDetector(Simulator(), [0, 1, 2])
    return oracle.omega(0), oracle.suspect(0)


def _heartbeat_view():
    sim, nodes, hosts = heartbeat_cluster()
    sim.run(until=0.001)  # let on_start attach the module
    return hosts[0].fd


VIEWS = {
    "oracle-omega": lambda: _oracle_views()[0],
    "oracle-suspects": lambda: _oracle_views()[1],
    "scripted-omega": lambda: ScriptedOmega(Simulator(), [(0.0, 0)]),
    "scripted-suspects": lambda: ScriptedSuspects(Simulator(), [(0.0, ())]),
    "heartbeat": _heartbeat_view,
    "derived-omega": lambda: _heartbeat_view().omega(),
}


@pytest.mark.parametrize("make", VIEWS.values(), ids=VIEWS.keys())
class TestUnsubscribe:
    """Every view lets a retired consensus instance stop listening."""

    def test_unsubscribed_callback_is_no_longer_called(self, make):
        view = make()
        calls = []
        first, second = (lambda: calls.append(1)), (lambda: calls.append(2))
        view.subscribe(first)
        view.subscribe(second)
        view.unsubscribe(first)
        view._notify()
        assert calls == [2]

    def test_unknown_callback_is_ignored(self, make):
        view = make()
        before = list(view._subscribers)
        view.unsubscribe(lambda: None)
        assert view._subscribers == before

    def test_unsubscribe_during_notification(self, make):
        # What a deciding instance does from inside its own callback: the
        # notification in progress still reaches everyone it started with.
        view = make()
        calls = []

        def first():
            calls.append(1)
            view.unsubscribe(first)
            view.unsubscribe(second)

        def second():
            calls.append(2)

        view.subscribe(first)
        view.subscribe(second)
        view._notify()
        assert calls == [1, 2]
        view._notify()
        assert calls == [1, 2]

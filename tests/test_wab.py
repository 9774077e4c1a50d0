"""Unit tests for the WAB ordering oracle."""

import gc
import hashlib
import weakref
from collections import Counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.oracles import wab
from repro.oracles.wab import WabMessage, WabOracle
from repro.sim.kernel import Simulator
from repro.sim.network import ConstantDelay, Network, UniformDelay
from repro.sim.node import Node
from repro.sim.process import HostProcess


class WabHost(HostProcess):
    def __init__(self, repeats=0):
        super().__init__()
        self.repeats = repeats
        self.wab = None
        self.delivered = []

    def on_start(self):
        self.wab = self.attach(
            ("wab",),
            lambda env: WabOracle(env, self._deliver, repeats=self.repeats),
        )

    def _deliver(self, instance, payload, position):
        self.delivered.append((instance, payload, position, self.env.now()))


def wab_cluster(n=4, delay=ConstantDelay(1e-3), datagram_delay=None, loss=0.0, repeats=0, seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim, delay=delay, datagram_delay=datagram_delay or delay, datagram_loss=loss)
    pids = list(range(n))
    hosts = {pid: WabHost(repeats=repeats) for pid in pids}
    nodes = {pid: Node(sim, net, pid, pids, hosts[pid]) for pid in pids}
    for node in nodes.values():
        node.start()
    sim.run(until=1e-9)  # attach modules
    return sim, hosts


class TestDelivery:
    def test_validity_all_correct_processes_deliver(self):
        sim, hosts = wab_cluster()
        hosts[0].wab.w_broadcast(1, "m")
        sim.run()
        for host in hosts.values():
            assert [(i, p) for i, p, _, _ in host.delivered] == [(1, "m")]

    def test_first_position_is_zero(self):
        sim, hosts = wab_cluster()
        hosts[0].wab.w_broadcast(1, "a")
        sim.run()
        assert all(h.delivered[0][2] == 0 for h in hosts.values())

    def test_positions_increment_within_instance(self):
        sim, hosts = wab_cluster()
        hosts[0].wab.w_broadcast(1, "a")
        hosts[1].wab.w_broadcast(1, "b")
        sim.run()
        for host in hosts.values():
            positions = [pos for i, _, pos, _ in host.delivered if i == 1]
            assert sorted(positions) == [0, 1]

    def test_instances_are_independent(self):
        sim, hosts = wab_cluster()
        hosts[0].wab.w_broadcast(1, "a")
        hosts[0].wab.w_broadcast(2, "b")
        sim.run()
        for host in hosts.values():
            firsts = [(i, pos) for i, _, pos, _ in host.delivered]
            assert (1, 0) in firsts and (2, 0) in firsts

    def test_spontaneous_order_holds_without_contention(self):
        # Sequential uncontended broadcasts: every process sees the same
        # first message in every instance.
        sim, hosts = wab_cluster(datagram_delay=UniformDelay(0.5e-3, 1.5e-3), seed=5)
        for k in range(10):
            sender = k % 4
            sim.schedule(k * 0.01, lambda k=k, s=sender: hosts[s].wab.w_broadcast(k, f"m{k}"))
        sim.run()
        for k in range(10):
            firsts = {
                next(p for i, p, pos, _ in h.delivered if i == k and pos == 0)
                for h in hosts.values()
            }
            assert len(firsts) == 1

    def test_spontaneous_order_breaks_under_contention(self):
        # Simultaneous broadcasts with jitter: some instance sees different
        # first messages at different processes.
        sim, hosts = wab_cluster(datagram_delay=UniformDelay(0.5e-3, 1.5e-3), seed=7)
        for k in range(10):
            for sender in range(4):
                sim.schedule(k * 0.01, lambda k=k, s=sender: hosts[s].wab.w_broadcast(k, f"m{k}-{s}"))
        sim.run()
        disagreements = 0
        for k in range(10):
            firsts = {
                next(p for i, p, pos, _ in h.delivered if i == k and pos == 0)
                for h in hosts.values()
            }
            if len(firsts) > 1:
                disagreements += 1
        assert disagreements > 0


class TestIntegrity:
    def test_duplicate_frames_suppressed(self):
        sim, hosts = wab_cluster(repeats=3)
        hosts[0].wab.w_broadcast(1, "m")
        sim.run()
        for host in hosts.values():
            assert len(host.delivered) == 1

    def test_same_payload_different_broadcasts_both_delivered(self):
        sim, hosts = wab_cluster()
        hosts[0].wab.w_broadcast(1, "same")
        hosts[1].wab.w_broadcast(1, "same")
        sim.run()
        for host in hosts.values():
            assert len([d for d in host.delivered if d[0] == 1]) == 2

    def test_non_wab_messages_ignored(self):
        sim, hosts = wab_cluster()
        hosts[0].wab.on_message(1, "not-a-wab-message")
        assert hosts[0].delivered == []

    def test_repeats_restore_validity_under_loss(self):
        sim, hosts = wab_cluster(loss=0.4, repeats=6, seed=11)
        hosts[0].wab.w_broadcast(1, "m")
        sim.run()
        delivered_counts = [len(h.delivered) for h in hosts.values()]
        assert all(c == 1 for c in delivered_counts)

    def test_negative_repeats_rejected(self):
        sim, hosts = wab_cluster()
        with pytest.raises(ConfigurationError):
            WabOracle(hosts[0].wab.env, lambda *a: None, repeats=-1)


class TestAccounting:
    def test_counters(self):
        sim, hosts = wab_cluster()
        hosts[0].wab.w_broadcast(1, "a")
        sim.run()
        assert hosts[0].wab.broadcasts == 1
        assert hosts[0].wab.deliveries == 1
        assert hosts[1].wab.delivered_in(1) == 1
        assert hosts[1].wab.delivered_in(99) == 0

    def test_wab_message_identity(self):
        a = WabMessage(1, "x", 0, 1)
        b = WabMessage(1, "x", 0, 1)
        assert a == b and hash(a) == hash(b)


class SetFilter:
    """The filter the per-sender ranges replace: every delivered message in a
    set, with the same position counter."""

    def __init__(self):
        self.seen = set()
        self.positions = {}
        self.deliveries = 0
        self.upcalls = []

    def on_message(self, src, msg):
        if msg in self.seen:
            return
        self.seen.add(msg)
        position = self.positions.get(msg.instance, 0)
        self.positions[msg.instance] = position + 1
        self.deliveries += 1
        self.upcalls.append((msg.instance, msg.payload, position))


def ranges_of(bounds):
    """Flat ``[lo, end)`` bounds as inclusive ``(lo, hi)`` pairs."""
    return [(bounds[i], bounds[i + 1] - 1) for i in range(0, len(bounds), 2)]


@st.composite
def arrivals(draw):
    """Copies of 3-5 origins' w-broadcasts (seqs 1, 2, ...) in arrival order:
    each broadcast is dropped or arrives 1-3 times, in any order."""
    copies = []
    for origin in range(draw(st.integers(3, 5))):
        for seq in range(1, draw(st.integers(1, 12)) + 1):
            instance = draw(st.integers(1, 4))
            payload = draw(st.sampled_from("abc"))
            for _ in range(draw(st.integers(0, 3))):
                copies.append(WabMessage(instance, payload, origin, seq))
    return draw(st.permutations(copies))


class TestSenderRanges:
    @seed(2006)
    @settings(max_examples=300, deadline=None)
    @given(arrivals())
    def test_same_upcalls_as_the_set_filter(self, order):
        upcalls = []
        oracle = WabOracle(None, lambda *upcall: upcalls.append(upcall))
        reference = SetFilter()
        for msg in order:
            oracle.on_message(msg.origin, msg)
            reference.on_message(msg.origin, msg)
            for bounds in oracle._delivered.values():
                # sorted, disjoint and non-adjacent: strictly increasing bounds
                assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert upcalls == reference.upcalls
        assert oracle.deliveries == reference.deliveries
        for origin, bounds in oracle._delivered.items():
            held = {s for lo, hi in ranges_of(bounds) for s in range(lo, hi + 1)}
            assert held == {m.seq for m in reference.seen if m.origin == origin}

    def test_gaps_open_extend_and_merge(self):
        oracle = WabOracle(None, lambda *upcall: None)
        for seq in (1, 2, 5, 9, 4, 3, 7, 8, 6):
            oracle.on_message(0, WabMessage(1, "m", 0, seq))
        assert oracle._delivered == {0: [1, 10]}
        oracle.on_message(0, WabMessage(1, "m", 0, 12))
        assert ranges_of(oracle._delivered[0]) == [(1, 9), (12, 12)]
        assert oracle.deliveries == 10

    def test_no_payload_is_retained(self):
        class Payload:
            pass

        sim, hosts = wab_cluster(repeats=2)
        payload = Payload()
        alive = weakref.ref(payload)
        hosts[0].wab.w_broadcast(1, payload)
        # The network's byte accounting keeps the last payload it sized as an
        # identity memo: a second broadcast moves it on.
        hosts[1].wab.w_broadcast(2, "next")
        sim.run()
        assert all(len(host.delivered) == 2 for host in hosts.values())
        for host in hosts.values():
            host.delivered.clear()
        del payload
        gc.collect()
        assert alive() is None
        assert all(host.wab.delivered_in(1) == 1 for host in hosts.values())

    def test_one_oracle_per_pid_through_crash_and_rejoin(self, monkeypatch):
        # The filter is exact only while each origin pid has one oracle per
        # run.  A crashed replica rejoins as a learner, which builds none.
        from repro.engine import PAPER_LAN, RsmRunSpec
        from repro.rsm import run_rsm

        built = []
        init = WabOracle.__init__

        def counting_init(self, env, *args, **kwargs):
            init(self, env, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(WabOracle, "__init__", counting_init)
        spec = RsmRunSpec(
            protocol="cabcast-l", rate=150.0, duration=0.5, n=4, clients=4,
            seed=2, cluster=PAPER_LAN, crash_at=((2, 0.25),), recover_after=0.25,
        )
        result = run_rsm(spec)
        assert list(result.learners) == [2]
        assert result.learners[2].abcast is None
        assert Counter(oracle.env.pid for oracle in built) == {0: 1, 1: 1, 2: 1, 3: 1}
        # No loss: every oracle ends with one range per origin it heard.
        for oracle in built:
            assert oracle.deliveries > 0
            assert all(len(b) == 2 for b in oracle._delivered.values())


class TestDatagramFaultPins:
    """Runs whose WAB traffic is duplicated, reordered and dropped report
    the same bytes as the set-of-messages filter did (sha256 of the report
    JSON, taken with that filter)."""

    PINS = {
        "cabcast-l": "985d781d41d39be15254132d33d0b80209be6d4dd2662ccbbab06466dc328daa",
        "cabcast-p": "cc63f12c908da95f5e815e0d2a64e0d2ed63d236a6c08f4c9ff1c7b7c797144d",
        "wabcast": "dc964b9aed90a0629d6238a884c1691f3b853b29a17632ff81a2ad97253f155c",
    }

    @pytest.mark.parametrize("protocol", sorted(PINS))
    def test_report_bytes(self, protocol, monkeypatch):
        from repro.engine import PAPER_LAN, AbcastRunSpec
        from repro.engine.runner import execute_run
        from repro.nemesis import DelayOp, DropOp, DupOp, NemesisSpec

        admitted = Counter()
        admit = wab._admit

        def counting_admit(bounds, seq):
            before = len(bounds)
            fresh = admit(bounds, seq)
            admitted[(fresh, (len(bounds) > before) - (len(bounds) < before))] += 1
            return fresh

        monkeypatch.setattr(wab, "_admit", counting_admit)
        nemesis = NemesisSpec(ops=(
            DupOp(at=0.1, duration=0.6, p=1.0, channel="datagram"),
            DelayOp(at=0.2, duration=0.5, jitter=5e-4, channel="datagram"),
            DropOp(at=0.3, duration=0.1, p=0.3, channel="datagram"),
        ))
        spec = AbcastRunSpec(
            protocol=protocol, rate=300.0, duration=1.0, seed=7,
            cluster=PAPER_LAN, nemesis=nemesis,
        )
        document = execute_run(spec).to_json().encode("utf-8")
        assert hashlib.sha256(document).hexdigest() == self.PINS[protocol]
        # Every datagram is cloned, and a clone escapes the drop window, so
        # these runs reach the duplicate branch; gaps are the property
        # test's to cover.
        assert admitted[(False, 0)] > 0

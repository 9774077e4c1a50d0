"""Unit tests for the simulated network: delays, FIFO, faults, capacity."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator
from repro.sim.network import (
    DATAGRAM,
    RELIABLE,
    ConstantDelay,
    ExponentialDelay,
    LanDelay,
    LinkCapacity,
    LogNormalDelay,
    Network,
    UniformDelay,
)


class Sink:
    """Minimal node: records (src, payload, arrival_time)."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def deliver(self, envelope):
        self.received.append((envelope.src, envelope.payload, self.sim.now))


def make_net(n=2, **kwargs):
    sim = Simulator(seed=1)
    net = Network(sim, **kwargs)
    sinks = {}
    for pid in range(n):
        sinks[pid] = Sink(sim)
        net.register(pid, sinks[pid])
    return sim, net, sinks


class TestDelayModels:
    def test_constant(self):
        assert ConstantDelay(0.5).sample(None) == 0.5
        assert ConstantDelay(0.5).mean() == 0.5

    def test_constant_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ConstantDelay(-1.0)

    def test_uniform_within_bounds(self):
        import random

        model = UniformDelay(0.1, 0.2)
        rng = random.Random(0)
        for _ in range(100):
            assert 0.1 <= model.sample(rng) <= 0.2
        assert model.mean() == pytest.approx(0.15)

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformDelay(0.2, 0.1)

    def test_exponential_at_least_base(self):
        import random

        model = ExponentialDelay(base=0.05, mean_extra=0.01)
        rng = random.Random(0)
        assert all(model.sample(rng) >= 0.05 for _ in range(100))
        assert model.mean() == pytest.approx(0.06)

    def test_exponential_zero_tail(self):
        model = ExponentialDelay(base=0.05, mean_extra=0.0)
        assert model.sample(None) == 0.05

    def test_lognormal_mean_is_calibrated(self):
        import random

        model = LogNormalDelay(mean_delay=1e-3, sigma=0.4)
        rng = random.Random(3)
        samples = [model.sample(rng) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(1e-3, rel=0.05)

    def test_lan_delay_positive(self):
        import random

        model = LanDelay()
        rng = random.Random(0)
        assert all(model.sample(rng) > model.base for _ in range(100))


class TestReliableChannel:
    def test_delivery(self):
        sim, net, sinks = make_net(delay=ConstantDelay(1e-3))
        net.send(0, 1, "hello")
        sim.run()
        assert sinks[1].received == [(0, "hello", pytest.approx(1e-3))]

    def test_fifo_per_link(self):
        # Even with wildly jittered delays, reliable messages never reorder.
        sim, net, sinks = make_net(delay=UniformDelay(0.0, 1.0))
        for i in range(50):
            net.send(0, 1, i)
        sim.run()
        assert [p for _, p, _ in sinks[1].received] == list(range(50))

    def test_self_messages_traverse_the_network(self):
        sim, net, sinks = make_net(delay=ConstantDelay(2e-3))
        net.send(0, 0, "self")
        sim.run()
        assert sinks[0].received[0][2] == pytest.approx(2e-3)

    def test_broadcast_reaches_everyone_including_sender(self):
        sim, net, sinks = make_net(n=4, delay=ConstantDelay(1e-3))
        net.broadcast(2, "hi")
        sim.run()
        for pid in range(4):
            assert [p for _, p, _ in sinks[pid].received] == ["hi"]

    def test_unknown_destination_rejected(self):
        sim, net, _ = make_net()
        with pytest.raises(ConfigurationError):
            net.send(0, 99, "x")

    def test_duplicate_registration_rejected(self):
        sim, net, _ = make_net()
        with pytest.raises(ConfigurationError):
            net.register(0, Sink(sim))


class TestDatagramChannel:
    def test_datagrams_may_reorder(self):
        sim, net, sinks = make_net(datagram_delay=UniformDelay(0.0, 1.0))
        for i in range(50):
            net.send(0, 1, i, channel=DATAGRAM)
        sim.run()
        order = [p for _, p, _ in sinks[1].received]
        assert sorted(order) == list(range(50))
        assert order != list(range(50))  # overwhelmingly likely with seed 1

    def test_datagram_loss(self):
        sim, net, sinks = make_net(datagram_loss=0.5)
        for i in range(200):
            net.send(0, 1, i, channel=DATAGRAM)
        sim.run()
        assert 40 < len(sinks[1].received) < 160
        assert net.stats.dropped == 200 - len(sinks[1].received)

    def test_reliable_never_dropped_by_loss_setting(self):
        sim, net, sinks = make_net(datagram_loss=0.9)
        for i in range(50):
            net.send(0, 1, i, channel=RELIABLE)
        sim.run()
        assert len(sinks[1].received) == 50

    def test_invalid_loss_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            Network(sim, datagram_loss=1.5)

    def test_unknown_channel_rejected(self):
        sim, net, _ = make_net()
        with pytest.raises(ConfigurationError):
            net.send(0, 1, "x", channel="pigeon")


class TestFaultInjection:
    def test_partition_blocks_cross_group_traffic(self):
        sim, net, sinks = make_net(n=4, delay=ConstantDelay(1e-3))
        net.partition({0, 1}, {2, 3})
        net.send(0, 1, "in-group")
        net.send(0, 2, "cross")
        sim.run()
        assert [p for _, p, _ in sinks[1].received] == ["in-group"]
        assert sinks[2].received == []

    def test_heal_restores_traffic(self):
        sim, net, sinks = make_net(n=2, delay=ConstantDelay(1e-3))
        net.partition({0}, {1})
        net.send(0, 1, "lost")
        net.heal()
        net.send(0, 1, "delivered")
        sim.run()
        assert [p for _, p, _ in sinks[1].received] == ["delivered"]

    def test_filter_can_drop(self):
        sim, net, sinks = make_net(delay=ConstantDelay(1e-3))
        net.add_filter(lambda env: env.payload != "bad")
        net.send(0, 1, "bad")
        net.send(0, 1, "good")
        sim.run()
        assert [p for _, p, _ in sinks[1].received] == ["good"]

    def test_filter_can_add_delay(self):
        sim, net, sinks = make_net(delay=ConstantDelay(1e-3))
        net.add_filter(lambda env: 0.5)
        net.send(0, 1, "slow")
        sim.run()
        assert sinks[1].received[0][2] == pytest.approx(0.501)

    def test_filter_removal(self):
        sim, net, sinks = make_net(delay=ConstantDelay(1e-3))
        remove = net.add_filter(lambda env: False)
        net.send(0, 1, "dropped")
        remove()
        net.send(0, 1, "kept")
        sim.run()
        assert [p for _, p, _ in sinks[1].received] == ["kept"]


class TestLinkCapacity:
    def test_shared_medium_serialises_all_traffic(self):
        capacity = LinkCapacity(frame_time=0.1, mode="shared")
        sim, net, sinks = make_net(n=3, delay=ConstantDelay(0.0), capacity=capacity)
        net.send(0, 1, "a")
        net.send(2, 1, "b")
        sim.run()
        times = [t for _, _, t in sinks[1].received]
        assert times == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_switched_uplink_serialises_per_sender(self):
        capacity = LinkCapacity(frame_time=0.1, mode="switched")
        sim, net, sinks = make_net(n=3, delay=ConstantDelay(0.0), capacity=capacity)
        net.send(0, 1, "a")  # occupies 0's uplink then 1's downlink
        net.send(2, 1, "b")  # different uplink, same downlink
        sim.run()
        times = sorted(t for _, _, t in sinks[1].received)
        # Uplinks run in parallel (both done at 0.1) but the shared downlink
        # serialises: second arrival at 0.2.
        assert times == [pytest.approx(0.2), pytest.approx(0.3)]

    def test_capacity_validates(self):
        with pytest.raises(ConfigurationError):
            LinkCapacity(frame_time=-1.0)
        with pytest.raises(ConfigurationError):
            LinkCapacity(frame_time=0.1, mode="quantum")

    def test_idle_network_has_no_queueing(self):
        capacity = LinkCapacity(frame_time=0.1, mode="switched")
        sim, net, sinks = make_net(delay=ConstantDelay(0.0), capacity=capacity)
        net.send(0, 1, "a")
        sim.run()
        sim2, net2, sinks2 = make_net(delay=ConstantDelay(0.0), capacity=capacity)
        net2.send(0, 1, "a")
        sim2.run()
        assert sinks[1].received[0][2] == sinks2[1].received[0][2]


class TestStats:
    def test_counts(self):
        sim, net, _ = make_net(n=3, delay=ConstantDelay(1e-3))
        net.broadcast(0, "x")
        sim.run()
        snap = net.stats.snapshot()
        assert snap["sent"] == 3
        assert snap["delivered"] == 3
        assert snap["dropped"] == 0
        assert snap["by_channel"][RELIABLE] == 3

    def test_kind_accounting_unwraps_scopes(self):
        from repro.sim.process import Scoped

        sim, net, _ = make_net(delay=ConstantDelay(1e-3))
        net.send(0, 1, Scoped(("cons", 1), Scoped(("x",), 42)))
        sim.run()
        assert net.stats.by_kind["int"] == 1

    def test_pids_exposes_cached_tuple(self):
        _, net, _ = make_net(n=3)
        assert net.pids == (0, 1, 2)
        # The property hands out the cached tuple itself, not a fresh copy.
        assert net.pids is net.pids


def _largest_container(stats):
    """Size of the biggest dict/list the stats object holds."""
    return max(len(v) for v in vars(stats).values() if isinstance(v, (dict, list)))


class TestStatsMemoBounds:
    """What the stats keep must stay bounded without costing exactness: long
    runs mint fresh scope tuples and estimate frozensets forever.  Scope
    wrappers are measured by arithmetic and leave nothing behind; past the
    cap the oldest frozenset entries are evicted and recomputed on re-use."""

    def _exact(self, payloads, monkeypatch, cap):
        import repro.sim.network as network_mod
        from repro.sim.network import HEADER_BYTES

        monkeypatch.setattr(network_mod, "STATS_MEMO_CAP", cap)
        sim, net, _ = make_net(delay=ConstantDelay(1e-3))
        for payload in payloads:
            net.send(0, 1, payload)
        sim.run()
        expected = sum(HEADER_BYTES + len(repr(p)) for p in payloads)
        assert net.stats.bytes_sent == expected
        return net.stats

    def test_frozenset_memo_is_bounded_and_exact(self, monkeypatch):
        distinct = [frozenset({i, i + 1}) for i in range(50)]
        # Re-send early ones after they have been evicted: recompute, same total.
        payloads = distinct + distinct[:10]
        stats = self._exact(payloads, monkeypatch, cap=8)
        assert len(stats._frozenset_lens) <= 8

    def test_scope_memo_is_bounded_and_exact(self, monkeypatch):
        from repro.sim.process import Scoped

        distinct = [Scoped(("mod", i), ("payload", i)) for i in range(50)]
        payloads = distinct + distinct[:10]
        stats = self._exact(payloads, monkeypatch, cap=8)
        assert _largest_container(stats) <= 8

    def test_repeated_and_empty_scopes_are_exact(self, monkeypatch):
        from repro.sim.process import Scoped

        shared = ("abc",)  # a stack's top-level scope: one tuple, every send
        payloads = [Scoped(shared, i) for i in range(5)]
        payloads += [Scoped((), "x"), Scoped(shared, Scoped(("cons", 7), "y"))]
        self._exact(payloads, monkeypatch, cap=8)

    def test_record_sent_path_is_bounded_too(self, monkeypatch):
        import repro.sim.network as network_mod
        from repro.sim.network import Envelope, HEADER_BYTES, NetworkStats
        from repro.sim.process import Scoped

        monkeypatch.setattr(network_mod, "STATS_MEMO_CAP", 8)
        stats = NetworkStats()
        payloads = [Scoped(("svc", i), ("body", i)) for i in range(40)]
        for payload in payloads:
            stats.record_sent(Envelope(0, 1, payload, RELIABLE, 0.0))
        assert _largest_container(stats) <= 8
        assert stats.bytes_sent == sum(
            HEADER_BYTES + len(repr(p)) for p in payloads
        )

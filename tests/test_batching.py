"""Batched execution equivalence: cohort drain, send cohorts, delay sampling.

The batched run loop (`Simulator.run` with ``batch=True``, the default) and
the network's send cohorts (``send_batch``) are pure performance features:
every test here pins the contract that they are *observationally identical*
to the serial one-event-at-a-time kernel and to one single-destination
``send()`` per destination — same trace bytes, same RNG stream, same
counters, same heap timestamps.
"""

import random

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim import network as network_mod
from repro.sim.kernel import Simulator
from repro.sim.network import (
    DATAGRAM,
    ConstantDelay,
    LanDelay,
    LinkCapacity,
    Network,
    UniformDelay,
)
from repro.sim.trace import Tracer

SEEDS = range(10)


def _random_workload(sim: Simulator, seed: int, stop_tag: int | None = None):
    """Build a randomized self-extending schedule; returns the trace list.

    Three same-timestamp cohorts of 90 events each put the queue well past
    the batching threshold; handlers schedule follow-ups (including
    same-time events, which exercise the mid-cohort merge guard) and cancel
    random pending events (cancelled-entry skipping inside a gathered
    cohort).  All randomness comes from a private ``random.Random(seed)``
    whose draw order is itself part of the equivalence check.
    """
    rng = random.Random(seed)
    trace: list = []
    events: list = []

    def handler(tag: int) -> None:
        # events_processed is deliberately NOT sampled here: both run loops
        # accumulate it in a local and flush at the end of the drain, so it
        # is only comparable across drains once run()/step() returns.
        trace.append((sim.now, tag, sim.pending()))
        if stop_tag is not None and tag == stop_tag:
            sim.stop()
            return
        roll = rng.random()
        if roll < 0.45:
            delay = rng.choice((0.0, 0.25, 1.0, rng.random()))
            events.append(sim.schedule(delay, handler, tag + 1000))
        if roll < 0.2 and events:
            events[rng.randrange(len(events))].cancel()

    for i in range(270):
        events.append(sim.schedule(1.0 + (i % 3), handler, i))
    for i in range(0, 270, 7):  # pre-cancelled entries inside the cohorts
        events[i].cancel()
    return trace


class TestBatchedVsStepEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_run_matches_step_drain(self, seed):
        batched = Simulator(seed=0, batch=True)
        trace_batched = _random_workload(batched, seed)
        batched.run()

        stepped = Simulator(seed=0, batch=True)
        trace_stepped = _random_workload(stepped, seed)
        while stepped.step():
            pass

        # Byte-identical traces (repr compares float bits exactly) and
        # identical kernel counters.
        assert repr(trace_batched) == repr(trace_stepped)
        assert batched.events_processed == stepped.events_processed
        assert batched.now == stepped.now
        assert batched.pending() == stepped.pending() == 0
        # The workload is deep enough that the batched path actually batched.
        assert batched.drain_batches > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_run_matches_serial_run(self, seed):
        batched = Simulator(seed=0, batch=True)
        trace_batched = _random_workload(batched, seed)
        batched.run()

        serial = Simulator(seed=0, batch=False)
        trace_serial = _random_workload(serial, seed)
        serial.run()

        assert repr(trace_batched) == repr(trace_serial)
        assert batched.events_processed == serial.events_processed
        assert serial.drain_batches == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mid_cohort_stop_then_resume(self, seed):
        # stop() from a handler in the middle of a gathered cohort must
        # leave exactly the serial kernel's state, and resuming must finish
        # the drain identically.
        stop_tag = 130  # inside the first 1.0-timestamp cohort
        batched = Simulator(seed=0, batch=True)
        trace_batched = _random_workload(batched, seed, stop_tag=stop_tag)
        batched.run()
        serial = Simulator(seed=0, batch=False)
        trace_serial = _random_workload(serial, seed, stop_tag=stop_tag)
        serial.run()

        assert repr(trace_batched) == repr(trace_serial)
        assert batched.events_processed == serial.events_processed
        assert batched.now == serial.now
        assert batched.pending() == serial.pending()

        batched.run()
        serial.run()
        assert repr(trace_batched) == repr(trace_serial)
        assert batched.events_processed == serial.events_processed
        assert batched.pending() == serial.pending() == 0


class TestStepCorruptionCheck:
    def test_step_rejects_past_event(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.now == 2.0
        # Corrupt the queue behind the kernel's back: an entry in the past.
        sim._queue.append((1.0, sim._seq, lambda: None, (), None))
        with pytest.raises(SimulationError, match="corrupted"):
            sim.step()

    def test_run_rejects_past_event_on_batched_path(self):
        sim = Simulator(batch=True)
        sim.schedule(2.0, lambda: None)
        sim.run()
        sim._queue.append((1.0, sim._seq, lambda: None, (), None))
        with pytest.raises(SimulationError, match="corrupted"):
            sim.run()


class TestEventRepr:
    def test_three_states(self):
        sim = Simulator()
        pending = sim.schedule(1.0, lambda: None)
        assert "pending" in repr(pending)
        cancelled = sim.schedule(1.0, lambda: None)
        cancelled.cancel()
        assert "cancelled" in repr(cancelled)
        sim.run()
        assert "done" in repr(pending)
        # cancel() after firing is a documented no-op and must not relabel
        # the fired event.
        pending.cancel()
        assert "done" in repr(pending)


class TestSampleManyRngParity:
    """sample_many(rng, n) must consume the rng exactly like n sample()s."""

    MODELS = [
        ConstantDelay(1e-3),
        UniformDelay(1e-3, 5e-3),
        LanDelay(base=4e-4, jitter_mean=4e-5, jitter_sigma=0.8),
        LanDelay(base=3e-4, jitter_mean=1.5e-4, jitter_sigma=1.7),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_same_values_and_stream_position(self, model, n):
        rng_seq = random.Random(42)
        sequential = [model.sample(rng_seq) for _ in range(n)]

        rng_vec = random.Random(42)
        vectorized = model.sample_many(rng_vec, n)

        assert list(vectorized) == sequential  # exact float equality
        # The rng must be left at the identical stream position.
        assert rng_seq.random() == rng_vec.random()


class _Recorder:
    """Minimal node honouring the fast-path contract: a receiver exposing
    ``deliver_from`` owns delivered accounting (as ``Node`` does)."""

    def __init__(self, net: Network):
        self.net = net
        self.received: list = []

    def deliver_from(self, src, payload):
        self.net.stats.delivered += 1
        self.received.append((src, payload))

    def deliver(self, envelope):
        self.deliver_from(envelope.src, envelope.payload)


def _fanout_run(batch: bool, channel: str = "reliable", n_dsts: int = 4):
    sim = Simulator(seed=5, batch=batch)
    net = Network(
        sim,
        delay=LanDelay(base=4e-4, jitter_mean=4e-5, jitter_sigma=0.8),
        datagram_delay=UniformDelay(1e-4, 9e-4),
    )
    sinks = {pid: _Recorder(net) for pid in range(n_dsts)}
    for pid, sink in sinks.items():
        net.register(pid, sink)
    dsts = net.pids
    if batch:
        for i in range(40):
            net.send_batch(i % n_dsts, dsts, ("payload", i), channel=channel)
    else:
        for i in range(40):
            for dst in dsts:
                net.send(i % n_dsts, dst, ("payload", i), channel=channel)
    sim.run()
    heap_now = sim.now
    return (
        {pid: sink.received for pid, sink in sinks.items()},
        net.stats.snapshot(),
        heap_now,
    )


class TestSendBatchEquivalence:
    @pytest.mark.parametrize("channel", ["reliable", DATAGRAM])
    def test_batch_matches_sequential_sends(self, channel):
        received_batch, stats_batch, now_batch = _fanout_run(True, channel)
        received_seq, stats_seq, now_seq = _fanout_run(False, channel)
        assert repr(received_batch) == repr(received_seq)
        assert now_batch == now_seq
        assert stats_batch == stats_seq

    def test_batch_disabled_by_spec_flag(self):
        # batch=False only selects the kernel's serial drain: the network
        # has one send path, so the received bytes are the same.
        runs = []
        for batch in (True, False):
            sim = Simulator(seed=1, batch=batch)
            net = Network(sim, delay=LanDelay())
            sinks = {pid: _Recorder(net) for pid in range(3)}
            for pid, sink in sinks.items():
                net.register(pid, sink)
            for i in range(20):
                net.send_batch(i % 3, net.pids, ("x", i))
            sim.run()
            runs.append(
                (repr({pid: s.received for pid, s in sinks.items()}), sim.now)
            )
        assert runs[0] == runs[1]
        assert runs[0][0].count("'x'") == 60

    def test_broadcast_resolution_accepts_equal_tuple(self):
        # env.peers hands send_batch a *fresh* tuple equal to the sorted
        # registry; the pre-bound broadcast path must still engage, so the
        # per-destination lookup table is never consulted.
        class NoLookup(dict):
            def get(self, *args):
                raise AssertionError("per-destination deliver_from lookup")

        sim = Simulator(seed=2, batch=True)
        net = Network(sim, delay=ConstantDelay(1e-3))
        sinks = {pid: _Recorder(net) for pid in range(4)}
        for pid, sink in sinks.items():
            net.register(pid, sink)
        net._deliver_fast = NoLookup()
        fresh = tuple(sorted(sinks))
        assert fresh is not net.pids
        net.send_batch(1, fresh, "hello")
        sim.run()
        assert all(sink.received == [(1, "hello")] for sink in sinks.values())

    def test_duck_typed_receiver_falls_back(self):
        # A registered object without deliver_from (envelope-only contract)
        # must still receive messages and be counted as delivered.
        class EnvelopeOnly:
            def __init__(self):
                self.envelopes = []

            def deliver(self, envelope):
                self.envelopes.append(envelope)

        sim = Simulator(seed=3, batch=True)
        net = Network(sim, delay=ConstantDelay(1e-3))
        plain = EnvelopeOnly()
        fast = _Recorder(net)
        net.register(0, plain)
        net.register(1, fast)
        net.send_batch(0, net.pids, "msg")
        sim.run()
        assert [e.payload for e in plain.envelopes] == ["msg"]
        assert fast.received == [(0, "msg")]
        assert net.stats.delivered == 2


class _EnvelopeOnly:
    """Duck-typed receiver without ``deliver_from``: envelopes only."""

    def __init__(self):
        self.received: list = []

    def deliver(self, envelope):
        self.received.append(
            (envelope.src, envelope.payload, envelope.msg_id, envelope.size)
        )


def _partition(net):
    net.partition({0, 1}, {2, 3})


def _drop_one(net):
    net.add_filter(lambda envelope: envelope.dst != 2)


def _add_delay(net):
    net.add_filter(lambda envelope: 3e-4 if envelope.dst % 2 else True)


def _size_three(net):
    def grow(envelope):
        envelope.size = 3
        return True

    net.add_filter(grow)


def _schedule_from_filter(net):
    # Like the nemesis duplicating filter: schedules an event mid-send.
    def resend_later(envelope):
        if envelope.dst % 2:
            net.sim.schedule(0.0, lambda: None)
        return True

    net.add_filter(resend_later)


def _observe(net):
    net.obs_tracer = Tracer()


def _observe_partitioned(net):
    _observe(net)
    _partition(net)


def _admission_run(
    cohort: bool,
    setup=None,
    channel: str = "reliable",
    capacity=None,
    datagram_loss: float = 0.0,
    envelope_only: tuple[int, ...] = (),
):
    """Twelve sends from rotating sources to all four pids, either as one
    ``send_batch`` each or as one ``send`` per destination; returns every
    observable the two must agree on."""
    sim = Simulator(seed=7)
    net = Network(
        sim,
        delay=LanDelay(base=4e-4, jitter_mean=4e-5, jitter_sigma=0.8),
        datagram_delay=LanDelay(base=3e-4, jitter_mean=1.5e-4, jitter_sigma=1.7),
        datagram_loss=datagram_loss,
        capacity=capacity,
    )
    sinks = {
        pid: _EnvelopeOnly() if pid in envelope_only else _Recorder(net)
        for pid in range(4)
    }
    for pid, sink in sinks.items():
        net.register(pid, sink)
    if setup is not None:
        setup(net)

    def fire(i):
        src, payload = i % 4, ("payload", i)
        if cohort:
            net.send_batch(src, net.pids, payload, channel)
        else:
            for dst in net.pids:
                net.send(src, dst, payload, channel)

    for i in range(12):
        sim.schedule(i * 5e-5, fire, i)
    sim.run()
    records = None
    if net.obs_tracer is not None:
        records = [(r.time, r.pid, r.kind, r.data) for r in net.obs_tracer.records]
    return (
        repr({pid: sink.received for pid, sink in sinks.items()}),
        net.stats.snapshot(),
        net._msg_seq,
        net._rng.getstate(),
        sim.now,
        sim.events_processed,
        repr(records),
    )


SWITCHED = LinkCapacity(frame_time=6e-5, mode="switched")
SHARED = LinkCapacity(frame_time=6e-5, mode="shared")


class TestOneSendPath:
    """A cohort keeps the sequential rng and event order under every
    admission feature: one ``send_batch(src, dsts, ...)`` against one
    single-destination send per destination."""

    CASES = {
        "partition-splits-cohort": dict(setup=_partition),
        "filter-drops-one": dict(setup=_drop_one),
        "filter-adds-delay": dict(setup=_add_delay),
        "filter-schedules-events": dict(setup=_schedule_from_filter),
        "filter-size-switched": dict(setup=_size_three, capacity=SWITCHED),
        "filter-size-shared": dict(setup=_size_three, capacity=SHARED),
        "datagram-loss-capacity": dict(
            channel=DATAGRAM, datagram_loss=0.3, capacity=SWITCHED
        ),
        "obs-tracer": dict(setup=_observe, capacity=SWITCHED),
        "obs-tracer-datagram": dict(setup=_observe, channel=DATAGRAM),
        "obs-tracer-partitioned": dict(setup=_observe_partitioned),
        "mixed-receivers": dict(envelope_only=(1, 3), capacity=SHARED),
        "mixed-receivers-filtered": dict(envelope_only=(0,), setup=_add_delay),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cohort_matches_single_sends(self, case):
        kwargs = self.CASES[case]
        cohort = _admission_run(True, **kwargs)
        single = _admission_run(False, **kwargs)
        assert cohort == single

    def test_features_are_exercised(self):
        # Guards the cases above against silently testing nothing.
        blocked = _admission_run(True, setup=_partition)[1]
        assert blocked["partition_blocked"] == 24
        dropped = _admission_run(True, setup=_drop_one)[1]
        assert dropped["dropped"] == 12
        lost = _admission_run(True, channel=DATAGRAM, datagram_loss=0.3)[1]
        assert 0 < lost["dropped"] < 48
        observed = _admission_run(True, setup=_observe)[6]
        assert observed.count("'msg-send'") == observed.count("'msg-deliver'") == 48
        mixed = _admission_run(True, envelope_only=(1, 3))[0]
        assert mixed.count("'payload'") == 48

    def test_observed_delivery_builds_no_envelope(self, monkeypatch):
        # Under obs alone, a deliver_from receiver gets (src, payload) as
        # an unobserved run would, and the msg-deliver record reuses the
        # kind counted at send time.
        plain = _admission_run(True)

        def no_envelope(*args, **kwargs):
            raise AssertionError("an observed delivery built an Envelope")

        monkeypatch.setattr(network_mod, "Envelope", no_envelope)
        observed = _admission_run(True, setup=_observe)
        assert observed[:6] == plain[:6]
        assert observed[6].count("'msg-deliver', {'src': ") == 48
        assert observed[6].count("'kind': 'tuple'") == 96

    def test_only_admitted_messages_draw_a_delay(self):
        # Partition-blocked and filter-dropped messages consume no draw:
        # the rng ends where drawing the admitted messages' delays leaves it.
        model = LanDelay(base=4e-4, jitter_mean=4e-5, jitter_sigma=0.8)
        for setup, admitted in ((_partition, 2), (_drop_one, 3), (None, 4)):
            sim = Simulator(seed=7)
            net = Network(sim, delay=model)
            for pid in range(4):
                net.register(pid, _Recorder(net))
            if setup is not None:
                setup(net)
            net.send_batch(0, net.pids, "x")
            expected = Simulator(seed=7).rng("network")
            for _ in range(admitted):
                model.sample(expected)
            assert net._rng.getstate() == expected.getstate()

    @pytest.mark.parametrize("capacity", [SWITCHED, SHARED], ids=["switched", "shared"])
    def test_envelope_size_scales_the_frame(self, capacity):
        sim = Simulator(seed=1)
        net = Network(sim, delay=ConstantDelay(0.0), capacity=capacity)
        for pid in range(2):
            net.register(pid, _Recorder(net))
        _size_three(net)
        net.send(0, 1, "x")
        sim.run()
        frames = 6 if capacity.mode == "switched" else 3  # uplink + downlink
        assert sim.now == pytest.approx(frames * capacity.frame_time)

    def test_events_scheduled_by_a_filter_keep_unique_sequence_numbers(self):
        sim = Simulator(seed=1)
        net = Network(sim, delay=LanDelay())
        for pid in range(4):
            net.register(pid, _Recorder(net))
        _schedule_from_filter(net)
        net.send_batch(0, net.pids, "x")
        seqs = [entry[1] for entry in sim._queue]
        assert len(seqs) == 6 and len(set(seqs)) == 6

    def test_unknown_destination_raises_before_counting(self):
        sim = Simulator(seed=4)
        net = Network(sim, delay=LanDelay())
        for pid in range(3):
            net.register(pid, _Recorder(net))
        before = (net.stats.snapshot(), net._msg_seq, net._rng.getstate(), sim.pending())
        with pytest.raises(ConfigurationError, match="unknown destination pid 9"):
            net.send_batch(0, (0, 1, 9, 2), "x")
        after = (net.stats.snapshot(), net._msg_seq, net._rng.getstate(), sim.pending())
        assert after == before

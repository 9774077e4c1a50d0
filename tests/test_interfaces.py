"""Unit tests for the consensus/abcast base plumbing (task T2, delivery dedup)."""

import dataclasses
import pickle
from typing import Any

import pytest

from repro.core.abcast_base import AppMessage, deterministic_batch_order
from repro.core.interfaces import ConsensusModule, Decide
from repro.core.values import canonical_key
from repro.errors import ConfigurationError
from repro.protocols.ct_abcast import Disseminate
from repro.protocols.paxos_abcast import LogAccept
from repro.protocols.paxos_abcast import Request as PaxosRequest
from repro.rsm import Command, Request
from repro.sim.kernel import Simulator
from repro.sim.network import (
    RELIABLE,
    ConstantDelay,
    Envelope,
    Network,
    NetworkStats,
    _approx_bytes,
)
from repro.sim.node import Node
from repro.sim.process import HostProcess, Scoped
from repro.sim.trace import describe_value


class Inert(ConsensusModule):
    """Consensus stub: never decides on its own; exposes the base machinery."""

    def __init__(self, env, on_decide=None):
        super().__init__(env, on_decide)
        self.protocol_messages = []

    def _start(self, value):
        self.started_with = value

    def _on_protocol_message(self, src, msg):
        self.protocol_messages.append((src, msg))


class InertHost(HostProcess):
    def __init__(self):
        super().__init__()
        self.decided_values = []

    def on_start(self):
        self.module = self.attach(("cons",), Inert)
        self.module.set_on_decide(self.decided_values.append)


def build(n=3):
    sim = Simulator(seed=0)
    net = Network(sim, delay=ConstantDelay(1e-3))
    pids = list(range(n))
    hosts = {pid: InertHost() for pid in pids}
    for pid in pids:
        Node(sim, net, pid, pids, hosts[pid]).start()
    sim.run(until=1e-9)
    return sim, net, hosts


class TestTaskT2:
    def test_decide_broadcasts_to_others(self):
        sim, net, hosts = build()
        hosts[0].module.propose("v")
        hosts[0].module._decide("v", steps=1)
        sim.run()
        assert hosts[1].decided_values == ["v"]
        assert hosts[2].decided_values == ["v"]

    def test_receivers_forward_once(self):
        sim, net, hosts = build()
        hosts[0].module._decide("v", steps=1)
        sim.run()
        # p0 sends 2 DECIDEs; p1 and p2 each forward 2 => 6 total.
        assert net.stats.by_kind["Decide"] == 6

    def test_decision_record_metadata(self):
        sim, net, hosts = build()
        hosts[0].module._decide("v", steps=3)
        sim.run()
        assert hosts[0].module.decision.via == "round"
        assert hosts[0].module.decision.steps == 3
        assert hosts[1].module.decision.via == "forward"

    def test_second_decide_ignored(self):
        sim, net, hosts = build()
        hosts[0].module._decide("v", steps=1)
        hosts[0].module._decide("w", steps=2)
        sim.run()
        assert hosts[0].module.decision.value == "v"
        assert all(h.decided_values in (["v"], []) or h.decided_values == ["v"] for h in hosts.values())

    def test_announce_disabled_suppresses_broadcast(self):
        sim, net, hosts = build()
        for host in hosts.values():
            host.module.announce_decide = False
        hosts[0].module._decide("v", steps=1)
        sim.run()
        assert net.stats.by_kind.get("Decide", 0) == 0
        assert hosts[1].module.decision is None

    def test_decide_before_propose_is_final(self):
        sim, net, hosts = build()
        hosts[1].module.on_message(0, Decide("early", 1))
        hosts[1].module.propose("mine")
        assert hosts[1].module.decision.value == "early"
        assert not hasattr(hosts[1].module, "started_with")

    def test_double_propose_rejected(self):
        sim, net, hosts = build()
        hosts[0].module.propose("a")
        with pytest.raises(ConfigurationError):
            hosts[0].module.propose("b")

    def test_double_on_decide_registration_rejected(self):
        sim, net, hosts = build()
        with pytest.raises(ConfigurationError):
            hosts[0].module.set_on_decide(lambda v: None)


#: ``AppMessage`` with ``msg_id`` as a property, minted on every read: the
#: reference that the stored field must be invisible against.
PropertyAppMessage = dataclasses.make_dataclass(
    "AppMessage",
    [("origin", int), ("seq", int), ("payload", Any), ("sent_at", float)],
    namespace={"msg_id": property(lambda self: (self.origin, self.seq))},
    frozen=True,
    slots=True,
)

MESSAGE_FIELDS = [
    (2, 7, "x", 1.5),
    # One sent_at repr is a prefix of the other: a key suffix after it
    # would flip their canonical_key order.
    (0, 1, "a", 0.1),
    (0, 1, "a", 0.15),
    (1, 1, None, 0.0),
    (3, 12, (Request(1, 4, Command("set", "k1", value="s1.4")),), 2.000125),
]

#: How the protocols carry a message: bare, relayed, in a batch, scoped.
WRAPPERS = [
    lambda m: m,
    PaxosRequest,
    lambda m: LogAccept(0, 1, frozenset({m})),
    lambda m: Scoped(("cons", 3), Disseminate(m)),
]


def wire_bytes(payload):
    stats = NetworkStats()
    stats.record_sent(Envelope(0, 1, payload, RELIABLE, 0.0))
    return stats.bytes_sent


class TestAppMessages:
    def test_msg_id(self):
        for fields in MESSAGE_FIELDS:
            self._check_against_reference(fields)

    def _check_against_reference(self, fields):
        m, ref = AppMessage(*fields), PropertyAppMessage(*fields)
        assert m.msg_id == ref.msg_id == fields[:2]
        assert m.msg_id is m.msg_id  # minted once, shared by every reader
        assert repr(m) == repr(ref)
        assert hash(m) == hash(ref)
        assert m == AppMessage(*fields)
        assert m != AppMessage(*fields[:3], fields[3] + 1)
        assert canonical_key(m) == canonical_key(ref)
        assert canonical_key(frozenset({m})) == canonical_key(frozenset({ref}))
        assert describe_value(m) == describe_value(ref)
        for wrap in WRAPPERS:
            assert wire_bytes(wrap(m)) == wire_bytes(wrap(ref)) == _approx_bytes(wrap(ref))
        with pytest.raises(TypeError):
            AppMessage(*fields, fields[:2])  # derived, never passed in
        for copy in (pickle.loads(pickle.dumps(m)), dataclasses.replace(m)):
            assert copy == m and repr(copy) == repr(m)
            assert copy.msg_id == m.msg_id and copy.msg_id is copy.msg_id
        moved = dataclasses.replace(m, seq=m.seq + 1)
        assert moved.msg_id == (m.origin, m.seq + 1)

    def test_deterministic_batch_order(self):
        batch = [
            AppMessage(1, 2, "b", 0.2),
            AppMessage(0, 1, "a", 0.3),
            AppMessage(1, 1, "c", 0.1),
        ]
        ordered = deterministic_batch_order(batch)
        assert [m.msg_id for m in ordered] == [(0, 1), (1, 1), (1, 2)]

    def test_hashable_in_frozensets(self):
        a = AppMessage(0, 1, "x", 0.0)
        b = AppMessage(0, 1, "x", 0.0)
        assert frozenset([a]) == frozenset([b])

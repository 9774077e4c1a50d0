"""Golden values for the spec/op codec: every run spec, cluster, topology,
fault op and schedule in the corpus below must encode to the exact bytes
(and hash to the exact cache keys) pinned here.

The pins hold the codec to the historical wire format: omit-groups that
serialise only when a member departs from its default, models as
``{"type": ..., **fields}``, op dicts in insertion order (``op`` first,
declaration order, matchers last).
"""

import hashlib
import json
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    PAPER_LAN,
    AbcastRunSpec,
    ClusterSpec,
    ConsensusRunSpec,
    RsmRunSpec,
    TopologySpec,
    spec_from_dict,
)
from repro.errors import ConfigurationError
from repro.nemesis.spec import (
    CpuSkewOp,
    CrashOp,
    DelayOp,
    DropOp,
    DupOp,
    FdFlapOp,
    NemesisSpec,
    PartitionOp,
    op_from_dict,
)
from repro.sim.network import (
    ConstantDelay,
    ExponentialDelay,
    LanDelay,
    LinkCapacity,
    LogNormalDelay,
    UniformDelay,
)

# ---------------------------------------------------------------------- corpus

OPS = {
    "partition": PartitionOp(at=0.05, duration=0.1, groups=((3, 0), (1, 2))),
    "crash": CrashOp(at=0.2, pid=1),
    "drop-bare": DropOp(at=0.01, duration=0.02),
    "drop-src": DropOp(at=0.01, duration=0.02, p=0.5, src=0),
    "drop-dst": DropOp(at=0.01, duration=0.02, dst=2),
    "drop-channel": DropOp(at=0.01, duration=0.02, channel="datagram"),
    "drop-all": DropOp(at=0.01, duration=0.02, p=0.25, src=1, dst=3, channel="reliable"),
    "delay-bare": DelayOp(at=0.03, duration=0.04, extra=0.001),
    "delay-all": DelayOp(
        at=0.03, duration=0.04, extra=0.0, jitter=0.002, src=2, dst=0, channel="datagram"
    ),
    "dup-bare": DupOp(at=0.05, duration=0.06),
    "dup-dst": DupOp(at=0.05, duration=0.06, p=0.75, dst=1),
    "dup-all": DupOp(at=0.05, duration=0.06, src=0, dst=1, channel="reliable"),
    "fd-flap": FdFlapOp(at=0.07, duration=0.08, pid=2),
    "cpu-skew-factor": CpuSkewOp(at=0.09, duration=0.1, pid=3, factor=4.0),
    "cpu-skew-extra": CpuSkewOp(at=0.09, duration=0.1, pid=0, factor=0.5, extra=1e-4),
}

SCHEDULE = NemesisSpec(tuple(OPS.values()))
SHORT_SCHEDULE = NemesisSpec((OPS["crash"], OPS["drop-src"]))

CLUSTERS = {
    "default": ClusterSpec(),
    "paper-lan": PAPER_LAN,
    "every-model": ClusterSpec(
        delay=ConstantDelay(1e-3),
        datagram_delay=UniformDelay(1e-4, 3e-3),
        datagram_loss=0.05,
        capacity=LinkCapacity(frame_time=8e-5, mode="shared"),
        service_time=1e-5,
        detection_delay=2e-3,
        initially_crashed=(3, 1),
    ),
    "exponential": ClusterSpec(delay=ExponentialDelay(base=1e-4, mean_extra=5e-4)),
    "lognormal": ClusterSpec(
        delay=LogNormalDelay(mean_delay=4e-4, sigma=0.4),
        datagram_delay=LanDelay(),
    ),
}

TOPOLOGIES = {
    "default": TopologySpec(),
    "range": TopologySpec(groups=4, group_size=3, partitioner="range"),
}

SPECS = {
    # ---- abcast
    "abcast-plain": AbcastRunSpec(protocol="cabcast-l", rate=80.0, duration=0.4),
    "abcast-every-field": AbcastRunSpec(
        protocol="wabcast",
        rate=250.0,
        duration=1.25,
        n=7,
        seed=13,
        warmup=0.1,
        drain=0.75,
        workload="uniform",
        cluster=CLUSTERS["every-model"],
        crash_at=((2, 0.3), (5, 0.6)),
        check=False,
        require_all_delivered=False,
        max_events=123_456,
        obs=True,
        obs_metrics_interval=0.01,
        obs_flight_recorder=64,
        batch=False,
        nemesis=SCHEDULE,
    ),
    "abcast-obs-interval-only": AbcastRunSpec(
        protocol="cabcast-p", rate=50.0, duration=0.3, obs_metrics_interval=0.05
    ),
    "abcast-flight-recorder-only": AbcastRunSpec(
        protocol="cabcast-p", rate=50.0, duration=0.3, obs_flight_recorder=16
    ),
    "abcast-batch-off": AbcastRunSpec(
        protocol="multipaxos", rate=100.0, duration=0.5, n=3, batch=False
    ),
    "abcast-nemesis": AbcastRunSpec(
        protocol="cabcast-l", rate=80.0, duration=0.4, nemesis=SHORT_SCHEDULE
    ),
    "abcast-empty-nemesis": AbcastRunSpec(
        protocol="cabcast-l", rate=80.0, duration=0.4, nemesis=NemesisSpec()
    ),
    "abcast-lognormal": AbcastRunSpec(
        protocol="ct-abcast", rate=120.0, duration=0.6, cluster=CLUSTERS["lognormal"]
    ),
    # ---- consensus
    "consensus-plain": ConsensusRunSpec(
        protocol="l-consensus", proposals=("a", "b", "c", "d")
    ),
    "consensus-every-field": ConsensusRunSpec(
        protocol="p-consensus",
        proposals=("v", 1, 2.5, None, "w"),
        seed=21,
        cluster=CLUSTERS["exponential"],
        crash_at=((0, 0.0001),),
        propose_at=((1, 0.002), (4, 0.003)),
        horizon=5.0,
        check=False,
        require_all_alive_decide=False,
        obs=True,
        obs_metrics_interval=0.5,
        obs_flight_recorder=8,
        batch=False,
        nemesis=SHORT_SCHEDULE,
    ),
    "consensus-propose-at": ConsensusRunSpec(
        protocol="paxos", proposals=("x", "y", "z"), propose_at=((2, 0.01),)
    ),
    "consensus-empty-nemesis": ConsensusRunSpec(
        protocol="l-consensus", proposals=("a", "b", "c", "d"), nemesis=NemesisSpec()
    ),
    "consensus-obs-only": ConsensusRunSpec(
        protocol="l-consensus", proposals=("a", "b", "c", "d"), obs=True
    ),
    # ---- rsm
    "rsm-plain": RsmRunSpec(protocol="cabcast-l", rate=120.0, duration=0.4, n=3),
    "rsm-every-serial-field": RsmRunSpec(
        protocol="multipaxos",
        rate=300.0,
        duration=2.0,
        n=5,
        clients=6,
        seed=4,
        warmup=0.2,
        drain=0.9,
        workload="closed",
        keys=64,
        batch_max=4,
        batch_delay=1e-3,
        snapshot_every=10,
        catchup_interval=0.05,
        failover_delay=1e-2,
        recover_after=None,
        cluster=PAPER_LAN,
        crash_at=((1, 0.5), (8, 0.7)),
        check=False,
        max_events=99_999,
        topology=TOPOLOGIES["range"],
        txn_clients=2,
        txn_rate=15.0,
        txn_keys=3,
        obs=True,
        obs_metrics_interval=0.02,
        obs_flight_recorder=32,
        batch=False,
        nemesis=SCHEDULE,
    ),
    "rsm-recover-none": RsmRunSpec(
        protocol="cabcast-l", rate=150.0, duration=0.5, recover_after=None,
        crash_at=((2, 0.25),),
    ),
    "rsm-topology-only": RsmRunSpec(
        protocol="cabcast-l", rate=120.0, duration=0.4, n=3,
        topology=TopologySpec(groups=2),
    ),
    "rsm-txn-keys-only": RsmRunSpec(
        protocol="cabcast-l", rate=120.0, duration=0.4, n=3, txn_keys=5
    ),
    "rsm-txn": RsmRunSpec(
        protocol="cabcast-l", rate=120.0, duration=0.4, n=3,
        topology=TopologySpec(groups=2), txn_clients=2, txn_rate=20.0,
    ),
    "rsm-parallel": RsmRunSpec(
        protocol="multipaxos", rate=30.0, duration=3.0, clients=6, seed=11,
        topology=TopologySpec(groups=8, group_size=3), parallel=True, workers=2,
    ),
    "rsm-parallel-no-workers": RsmRunSpec(
        protocol="multipaxos", rate=30.0, duration=3.0,
        topology=TopologySpec(groups=2), parallel=True,
    ),
    "rsm-empty-nemesis-batch-off": RsmRunSpec(
        protocol="cabcast-l", rate=120.0, duration=0.4, n=3,
        nemesis=NemesisSpec(), batch=False,
    ),
}

# ---------------------------------------------------------------------- golden

# Captured from the hand-written codecs these classes used to carry.
SPEC_PINS = {
    "abcast-batch-off": (
        "8ec14b085e1904d57608592b13ecc3b07beb4b571b9733d1ee25348a4e64fc7f",
        "ffe4c4a0cbe69dcaef1eccb79f3e2d28aafda9c89a40bc469069db62fc95cf73",
    ),
    "abcast-empty-nemesis": (
        "bbb4fd6430a858082228360f09493bb21b33f3ae4990c7ba04fb530240647baf",
        "f75743bb937aee67438ddfbe142aae401657d9bb16294692eab5d69f57471b68",
    ),
    "abcast-every-field": (
        "3e5670e57e66e0d312374783bf7f313078a5579e4d5d82a667c057b9b48fd9c0",
        "f941586a60d66eff7823cbdefe338328b6e22f7e95c1d2be89604466bd65cef3",
    ),
    "abcast-flight-recorder-only": (
        "39c9895ea69c050a3563e2db6cb77fb5de09eaf229bae47921d5040ea422c712",
        "d679df0bcfea6d8c5a0f938bee36f8d2a6a6db293edbdbe3e4ffb880b7cbe54f",
    ),
    "abcast-lognormal": (
        "3ea248c04f351666edb2069ccee1fe5decb1b0ddfd7b3df4a5c490e084cd5e9e",
        "4e43f8b7b01a8c8e80965d1c17d9c9fcf62b5dfeeb73b499d2b54c0a8b8bb357",
    ),
    "abcast-nemesis": (
        "6c92708c8bdc17436016899389da0b72eff5575da04921401d6fa738768785da",
        "ae4abc17dac49cb5aa2b5766e081a6c6e56a685019712ffabf42e6979b2bc850",
    ),
    "abcast-obs-interval-only": (
        "4f7749cb0da4e4be6701b9fb3449b4ca2f3df0b7fb23130b268602ce8b70b9a5",
        "343b90e2f6b620ccb82121410c8c3128e87982eaee14374d4c823ac16be73bc2",
    ),
    "abcast-plain": (
        "bbb4fd6430a858082228360f09493bb21b33f3ae4990c7ba04fb530240647baf",
        "f75743bb937aee67438ddfbe142aae401657d9bb16294692eab5d69f57471b68",
    ),
    "consensus-empty-nemesis": (
        "5f777091924169c6771999e7ed2ca7887de4aa3fedd8667b291a6289a9cc342b",
        "03284a7ced3db4943c7ecd80b2ca3234233caa69505cb7cf859de1e3ff1ccd40",
    ),
    "consensus-every-field": (
        "b8f640d1800d2c0aa9cc4d5baf3b282631df61165b6ae03a4deaef137f3cdaff",
        "55a80d16d0ce37b32eda1671a03c4c2beb3ebcffde2a36fad67a53540a93bb61",
    ),
    "consensus-obs-only": (
        "319660de97e86aafc026f11a1a708c1a9df943ca3d7665728a9d8a0133c56800",
        "9286a6b9d1fedc347a9c911619ce544499acbc3afd177d66d8cc642b5e3fbcd4",
    ),
    "consensus-plain": (
        "5f777091924169c6771999e7ed2ca7887de4aa3fedd8667b291a6289a9cc342b",
        "03284a7ced3db4943c7ecd80b2ca3234233caa69505cb7cf859de1e3ff1ccd40",
    ),
    "consensus-propose-at": (
        "f1402f74ee807c138c0a23bc8fef0d5f46ab14d6216e8d580bd4b6a8e75a1db1",
        "f339450d17f2e5a9f8690b5ee419ed1cf790b3a76632c5d6b49d120f98910616",
    ),
    "rsm-empty-nemesis-batch-off": (
        "f359df49f88dfb962d14cb33d7143d53720b2df4e8e7ee6334aea4b7262018ab",
        "a1defe04494c6f8e2a407a54040fd1e10dd260d72e7ccc54392a56dc11f7eeee",
    ),
    "rsm-every-serial-field": (
        "9a8e1c064ae9ad6f347fcdc3b099fa82d59b0a6f4cb50d778ff4e72619c7fe70",
        "a628604413692b3d9ed2e861c93e54254af0b9570f6e8f065b4a742632af7961",
    ),
    "rsm-parallel": (
        "db466b3408742ddb9d5f0811ac11457ec131ec62cdd0b0ad61e7ab511e26f2de",
        "80ddef504688bcd6f442d9bac86c6d362cca764b77b2868621dd6893bd04032d",
    ),
    "rsm-parallel-no-workers": (
        "da3c3b3b40850b0b19994bdc5813a23c09a8a8995a4965ab47a4d313ba503aa9",
        "7fe850b5d2a5dca26b105cdf942e67f014ac365f3b6540374c2c60ef568fefa4",
    ),
    "rsm-plain": (
        "ae66e2fb7c611cdb7b6eb5a6e1266ebde54da99f75d5f12fc1bf9fa54ee9cdfd",
        "de25757513a2d9bca4b12cf3f66249a9ff79a6471ba0f6a518c8555f17faea5e",
    ),
    "rsm-recover-none": (
        "88860b1196491eff3ce58bc66fe3e709725db560e8929ffd434434a92941fabe",
        "7db998629a7beef40d2a35efbfd2af2e84574d99fa93b9b4cddc4c04de33e94e",
    ),
    "rsm-topology-only": (
        "ab99f0c3a0af3c3f17c53d8ad3176ae674760d62eac51fc8e530bb077d5343d4",
        "6351d1cabff62071b75654f4143ba6a2c42216e8a5e1fd27b43a452ca9590919",
    ),
    "rsm-txn": (
        "3cf4829aaffdda1914303e06dbdf996728648be76da85387b8d452bd7bfd9817",
        "9fa431f5939c9a1212474434324f2d7dba579d72546d58f5b008b606ab0e2c35",
    ),
    "rsm-txn-keys-only": (
        "b380acb1d239facfbd21a741e64debe2d2b9c57b5dd0707672553d017d919990",
        "0f51300e9056a7064905f98d894fef019cf0ab1deb44f04c5283f4f2e0c8b8d9",
    ),
}

CLUSTER_PINS = {
    "default": "b2634f83f0cd5694c3b7ceeac4240b40e790eda64c50c597388517f1ffb3fbcf",
    "every-model": "e1925cf72c35b8665e1983f97795d1dc1ab7c8e259569b4629464cf7c4ed5beb",
    "exponential": "f6b4db3868248851627cefa6fafbb3fa6e05c0e0069bfb401aa735102c362559",
    "lognormal": "27bcf9456c4b5807f2de8f97cb0b3a4b3f9199fd0dc4fa1a2cec4d6bfaf05115",
    "paper-lan": "b2e825991d6a70c6a77520257f2995ff2ca2253f3a8234cc919d65feb2396909",
}

TOPOLOGY_PINS = {
    "default": "891e3cb6eea4926816360799efdbb14ab43d59d08009e74f1c8855a9f8b7ab0b",
    "range": "6ccc63e70e17b14535fc5e312a24bda4c7d110889cad70d2141e5e0971d2d03c",
}

OP_PINS = {
    "cpu-skew-extra": "{'op': 'cpu-skew', 'at': 0.09, 'duration': 0.1, 'pid': 0, 'factor': 0.5, 'extra': 0.0001}",
    "cpu-skew-factor": "{'op': 'cpu-skew', 'at': 0.09, 'duration': 0.1, 'pid': 3, 'factor': 4.0, 'extra': 0.0}",
    "crash": "{'op': 'crash', 'at': 0.2, 'pid': 1}",
    "delay-all": "{'op': 'delay', 'at': 0.03, 'duration': 0.04, 'extra': 0.0, 'jitter': 0.002, 'src': 2, 'dst': 0, 'channel': 'datagram'}",
    "delay-bare": "{'op': 'delay', 'at': 0.03, 'duration': 0.04, 'extra': 0.001, 'jitter': 0.0}",
    "drop-all": "{'op': 'drop', 'at': 0.01, 'duration': 0.02, 'p': 0.25, 'src': 1, 'dst': 3, 'channel': 'reliable'}",
    "drop-bare": "{'op': 'drop', 'at': 0.01, 'duration': 0.02, 'p': 1.0}",
    "drop-channel": "{'op': 'drop', 'at': 0.01, 'duration': 0.02, 'p': 1.0, 'channel': 'datagram'}",
    "drop-dst": "{'op': 'drop', 'at': 0.01, 'duration': 0.02, 'p': 1.0, 'dst': 2}",
    "drop-src": "{'op': 'drop', 'at': 0.01, 'duration': 0.02, 'p': 0.5, 'src': 0}",
    "dup-all": "{'op': 'dup', 'at': 0.05, 'duration': 0.06, 'p': 1.0, 'src': 0, 'dst': 1, 'channel': 'reliable'}",
    "dup-bare": "{'op': 'dup', 'at': 0.05, 'duration': 0.06, 'p': 1.0}",
    "dup-dst": "{'op': 'dup', 'at': 0.05, 'duration': 0.06, 'p': 0.75, 'dst': 1}",
    "fd-flap": "{'op': 'fd-flap', 'at': 0.07, 'duration': 0.08, 'pid': 2}",
    "partition": "{'op': 'partition', 'at': 0.05, 'duration': 0.1, 'groups': [[0, 3], [1, 2]]}",
}

SCHEDULE_KEY = "a4adf8dc79c5da763c8a9334328230b824553d1f6542fd836ec675fe65de77e2"
SHORT_SCHEDULE_KEY = "ad8f17d943540252a955a3c2f43fcb1de15a5cd8fa70dc5e27305042da417f43"
EMPTY_SCHEDULE_KEY = "0204bd63f6c4f5fa62308287492a9c19784f538644e2729bc859498738912194"


def _dict_sha(obj) -> str:
    text = json.dumps(obj.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------- tests


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_spec_dict_and_key_pinned(self, name):
        spec = SPECS[name]
        assert (_dict_sha(spec), spec.cache_key()) == SPEC_PINS[name]

    @pytest.mark.parametrize("name", sorted(CLUSTERS))
    def test_cluster_dict_pinned(self, name):
        assert _dict_sha(CLUSTERS[name]) == CLUSTER_PINS[name]

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_topology_dict_pinned(self, name):
        assert _dict_sha(TOPOLOGIES[name]) == TOPOLOGY_PINS[name]

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_op_dict_insertion_order_pinned(self, name):
        # repr, not ==: the trace embeds op dicts, so key order is format.
        assert repr(OPS[name].to_dict()) == OP_PINS[name]

    def test_schedule_keys_pinned(self):
        assert SCHEDULE.cache_key() == SCHEDULE_KEY
        assert SHORT_SCHEDULE.cache_key() == SHORT_SCHEDULE_KEY
        assert NemesisSpec().cache_key() == EMPTY_SCHEDULE_KEY


class TestOmitGroups:
    def test_empty_nemesis_serialises_like_none(self):
        for name in ("abcast", "consensus"):
            empty = SPECS[f"{name}-empty-nemesis"]
            bare = SPECS[f"{name}-plain"]
            assert "nemesis" not in empty.to_dict()
            assert empty.to_dict() == bare.to_dict()
            assert empty.cache_key() == bare.cache_key()

    def test_empty_ops_list_decodes_to_none(self):
        body = SPECS["abcast-plain"].to_dict()
        body["nemesis"] = {"ops": []}
        assert spec_from_dict(body).nemesis is None

    def test_defaults_stay_out_of_the_dict(self):
        body = SPECS["rsm-plain"].to_dict()
        for key in (
            "obs", "obs_metrics_interval", "obs_flight_recorder", "batch",
            "nemesis", "topology", "txn_clients", "txn_rate", "txn_keys",
            "parallel", "workers",
        ):
            assert key not in body

    def test_one_member_writes_its_whole_group(self):
        body = SPECS["abcast-flight-recorder-only"].to_dict()
        assert (body["obs"], body["obs_metrics_interval"], body["obs_flight_recorder"]) == (
            False, 0.0, 16,
        )
        body = SPECS["rsm-txn-keys-only"].to_dict()
        assert body["topology"] == {"groups": 1, "group_size": None, "partitioner": "hash"}
        assert (body["txn_clients"], body["txn_rate"], body["txn_keys"]) == (0, 0.0, 5)
        body = SPECS["rsm-parallel-no-workers"].to_dict()
        assert (body["parallel"], body["workers"]) == (True, 0)

    def test_matchers_written_only_when_set(self):
        assert list(OPS["drop-bare"].to_dict()) == ["op", "at", "duration", "p"]
        assert list(OPS["drop-dst"].to_dict()) == ["op", "at", "duration", "p", "dst"]


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_spec_round_trips(self, name):
        spec = SPECS[name]
        body = spec.to_dict()
        assert json.loads(json.dumps(body)) == body
        # An empty schedule is written like no schedule, and read back so.
        expected = replace(spec, nemesis=spec.nemesis or None)
        assert type(spec).from_dict(body) == expected
        assert spec_from_dict(body) == expected

    @pytest.mark.parametrize("name", sorted(CLUSTERS))
    def test_cluster_round_trips(self, name):
        cluster = CLUSTERS[name]
        body = cluster.to_dict()
        assert json.loads(json.dumps(body)) == body
        assert ClusterSpec.from_dict(body) == cluster

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_topology_round_trips(self, name):
        topology = TOPOLOGIES[name]
        assert TopologySpec.from_dict(topology.to_dict()) == topology
        assert TopologySpec.from_dict(None) == TopologySpec()

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_op_round_trips(self, name):
        op = OPS[name]
        body = op.to_dict()
        assert json.loads(json.dumps(body)) == body
        assert op_from_dict(body) == op
        assert type(op).from_dict(body) == op

    def test_schedule_round_trips(self):
        body = SCHEDULE.to_dict()
        assert json.loads(json.dumps(body)) == body
        assert NemesisSpec.from_dict(body) == SCHEDULE
        assert NemesisSpec.from_dict(None) == NemesisSpec()

    def test_unknown_keys_ignored(self):
        body = {**SPECS["rsm-txn"].to_dict(), "someday": 1}
        assert spec_from_dict(body) == SPECS["rsm-txn"]
        op = {**OPS["drop-all"].to_dict(), "someday": 1}
        assert op_from_dict(op) == OPS["drop-all"]


_pid = st.integers(min_value=0, max_value=6)
_at = st.floats(min_value=0.0, max_value=10.0)
_span = st.floats(min_value=1e-6, max_value=10.0)
_p = st.floats(min_value=1e-3, max_value=1.0)
_matchers = dict(
    src=st.none() | _pid,
    dst=st.none() | _pid,
    channel=st.none() | st.sampled_from(["reliable", "datagram"]),
)

_ops = st.one_of(
    st.builds(
        PartitionOp, at=_at, duration=_span,
        groups=st.lists(st.lists(_pid, min_size=1, max_size=3), min_size=1, max_size=3),
    ),
    st.builds(CrashOp, at=_at, pid=_pid),
    st.builds(DropOp, at=_at, duration=_span, p=_p, **_matchers),
    st.builds(
        DelayOp, at=_at, duration=_span,
        extra=st.floats(min_value=1e-6, max_value=1.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
        **_matchers,
    ),
    st.builds(DupOp, at=_at, duration=_span, p=_p, **_matchers),
    st.builds(FdFlapOp, at=_at, duration=_span, pid=_pid),
    st.builds(
        CpuSkewOp, at=_at, duration=_span, pid=_pid,
        factor=st.floats(min_value=1.5, max_value=8.0),
        extra=st.floats(min_value=0.0, max_value=1e-3),
    ),
)


class TestGeneratedRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_ops, max_size=5), st.booleans(), st.integers(0, 3))
    def test_abcast_with_generated_schedule(self, ops, batch, recorder):
        spec = AbcastRunSpec(
            protocol="cabcast-l", rate=80.0, duration=0.4, batch=batch,
            obs_flight_recorder=recorder, nemesis=NemesisSpec(tuple(ops)) or None,
        )
        body = spec.to_dict()
        assert json.loads(json.dumps(body)) == body
        assert spec_from_dict(body) == spec
        assert ("batch" in body) is (not batch)
        assert ("obs" in body) is (recorder > 0)
        assert ("nemesis" in body) is bool(ops)
        for op, encoded in zip(ops, body.get("nemesis", {"ops": []})["ops"]):
            assert list(encoded)[0] == "op"
            assert op_from_dict(encoded) == op


@dataclass(frozen=True)
class _UnregisteredDelay:
    delay: float = 1e-3

    def sample(self, rng) -> float:
        return self.delay


class TestMalformedInput:
    def test_missing_required_key_is_keyerror(self):
        body = SPECS["abcast-plain"].to_dict()
        del body["seed"]
        with pytest.raises(KeyError):
            spec_from_dict(body)
        cluster = ClusterSpec().to_dict()
        del cluster["datagram_loss"]
        with pytest.raises(KeyError):
            ClusterSpec.from_dict(cluster)
        op = OPS["cpu-skew-factor"].to_dict()
        del op["factor"]
        with pytest.raises(KeyError):
            op_from_dict(op)

    def test_unknown_kind_is_configuration_error(self):
        body = {**SPECS["abcast-plain"].to_dict(), "kind": "gossip"}
        with pytest.raises(ConfigurationError):
            spec_from_dict(body)
        with pytest.raises(ConfigurationError):
            spec_from_dict({})

    def test_unknown_model_is_configuration_error(self):
        body = SPECS["abcast-plain"].to_dict()
        body["cluster"]["delay"] = {"type": "WormholeDelay", "delay": 0.0}
        with pytest.raises(ConfigurationError):
            spec_from_dict(body)

    def test_unknown_op_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            op_from_dict({"op": "meteor", "at": 0.0})
        with pytest.raises(ConfigurationError):
            NemesisSpec.from_dict({"ops": [{"op": "meteor", "at": 0.0}]})

    def test_encoding_unregistered_model_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(delay=_UnregisteredDelay()).to_dict()
        with pytest.raises(ConfigurationError):
            AbcastRunSpec(
                protocol="cabcast-l", rate=1.0, duration=1.0,
                cluster=ClusterSpec(capacity=_UnregisteredDelay()),
            ).cache_key()

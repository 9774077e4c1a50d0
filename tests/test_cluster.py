"""The shared cluster pipeline behind ``run_abcast`` and ``run_consensus``:
per-pid inputs are validated once, and consensus runs keep the plain
reliable network whatever datagram or capacity model the cluster names."""

import pytest

from repro.engine import (
    DEFAULT_SERVICE_TIME,
    LAN,
    PAPER_LAN,
    AbcastRunSpec,
    ClusterSpec,
    ConsensusRunSpec,
    RunContext,
)
from repro.errors import ConfigurationError
from repro.harness.abcast_runner import run_abcast
from repro.harness.consensus_runner import run_consensus
from repro.harness.factories import cabcast_l, l_consensus
from repro.sim.trace import Tracer

THREE = {0: "a", 1: "b", 2: "c"}


def consensus_spec(**fields):
    return ConsensusRunSpec(protocol="l-consensus", proposals=("a", "b", "c"), **fields)


@pytest.mark.parametrize(
    "run, message",
    [
        pytest.param(
            lambda: run_abcast(
                AbcastRunSpec(
                    protocol="cabcast-l", rate=50, duration=0.2, crash_at=((7, 0.1),)
                )
            ),
            "crash_at names unknown replica 7",
            id="abcast-spec",
        ),
        pytest.param(
            lambda: run_abcast(cabcast_l, 4, {}, crash_at={4: 0.1}),
            "crash_at names unknown replica 4",
            id="abcast-kwargs",
        ),
        pytest.param(
            lambda: run_consensus(consensus_spec(crash_at=((7, 0.1),))),
            "crash_at names unknown replica 7",
            id="consensus-spec",
        ),
        pytest.param(
            lambda: run_consensus(l_consensus, THREE, crash_at={9: 0.01}),
            "crash_at names unknown replica 9",
            id="consensus-kwargs",
        ),
        pytest.param(
            lambda: run_consensus(consensus_spec(propose_at=((5, 0.01),))),
            "propose_at names unknown replica 5",
            id="propose_at-spec",
        ),
        pytest.param(
            lambda: run_consensus(l_consensus, THREE, propose_at={3: 0.01}),
            "propose_at names unknown replica 3",
            id="propose_at-kwargs",
        ),
    ],
)
def test_unknown_pid_is_a_configuration_error(run, message):
    with pytest.raises(ConfigurationError, match=message):
        run()


def test_consensus_ignores_datagram_and_capacity_fields():
    def observed(cluster):
        tracer = Tracer()
        spec = ConsensusRunSpec(
            protocol="l-consensus",
            proposals=("a", "b", "c", "d"),
            seed=5,
            cluster=cluster,
            crash_at=((0, 0.0005),),
        )
        return run_consensus(spec, ctx=RunContext(tracer=tracer)), tracer

    full, full_trace = observed(PAPER_LAN)
    plain, plain_trace = observed(
        ClusterSpec(delay=LAN, service_time=DEFAULT_SERVICE_TIME)
    )
    assert full.decisions == plain.decisions
    assert full.records == plain.records
    assert full.network_stats == plain.network_stats
    assert full_trace.records
    assert repr(full_trace.records) == repr(plain_trace.records)

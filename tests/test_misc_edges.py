"""Edge-case tests for harness validation, kernel helpers and the live stack."""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.harness import run_consensus
from repro.harness.abcast_runner import run_abcast
from repro.harness.factories import cabcast_p, p_consensus
from repro.sim.network import ConstantDelay
from repro.sim.node import Cluster
from repro.sim.process import Process


class TestHarnessValidation:
    def test_consensus_needs_two_processes(self):
        with pytest.raises(ConfigurationError):
            run_consensus(p_consensus, {0: "only"})

    def test_abcast_needs_two_processes(self):
        with pytest.raises(ConfigurationError):
            run_abcast(cabcast_p, 1, {0: [(0.001, "x")]})

    def test_delayed_proposals_via_propose_at(self):
        result = run_consensus(
            p_consensus,
            {p: "v" for p in range(4)},
            seed=1,
            propose_at={0: 0.01, 1: 0.02},
        )
        assert set(result.decisions.values()) == {"v"}

    def test_run_result_steps_of(self):
        result = run_consensus(p_consensus, {p: "v" for p in range(4)}, seed=2)
        assert result.steps_of(0) >= 1

    def test_abcast_result_latency_of_undelivered_is_none(self):
        result = run_abcast(
            cabcast_p,
            4,
            {0: [(0.001, "x")]},
            seed=3,
            horizon=5.0,
        )
        # A fabricated id that was never delivered anywhere:
        result.broadcast[(9, 9)] = next(iter(result.broadcast.values()))
        assert result.latency_of((9, 9)) is None


class TestKernelHelpers:
    def test_cluster_run_with_max_events(self):
        class Chatty(Process):
            def on_start(self):
                self.env.set_timer("t", 0.01)

            def on_timer(self, name):
                self.env.set_timer("t", 0.01)

        cluster = Cluster(2, lambda pid, pids: Chatty(), delay=ConstantDelay(1e-3))
        cluster.start()
        cluster.run(max_events=20)
        assert cluster.sim.events_processed == 20


class TestLiveStackWithLoss:
    def test_cabcast_over_lossy_datagrams_live(self):
        # WAB repeats restore validity under datagram loss, live on asyncio.
        from repro.core import PConsensus
        from repro.core.cabcast import CAbcast
        from repro.fd.base import SuspectView
        from repro.harness.abcast_runner import AbcastHost
        from repro.harness.checkers import check_uniform_total_order
        from repro.runtime import AsyncCluster

        class Trusting(SuspectView):
            def suspected(self):
                return frozenset()

            def subscribe(self, fn):
                pass

        def factory(pid, pids):
            return AbcastHost(
                module_factory=lambda h, env: CAbcast(
                    env,
                    lambda senv: PConsensus(senv, Trusting()),
                    wab_repeats=4,
                ),
                schedule=[(0.02 * (i + 1), f"m{pid}.{i}") for i in range(2)]
                if pid == 0
                else (),
            )

        async def main():
            cluster = AsyncCluster(
                4,
                factory,
                delay=ConstantDelay(0.002),
                datagram_loss=0.3,
                seed=6,
            )
            await cluster.start()
            await cluster.run(0.6)
            await cluster.shutdown()
            return {p: h.abcast.delivered_ids for p, h in cluster.processes.items()}

        deliveries = asyncio.run(main())
        check_uniform_total_order(deliveries)
        assert all(len(seq) == 2 for seq in deliveries.values())

"""Tests for the asyncio runtime: the same protocol code, run live."""

import asyncio

import pytest

from repro.core import LConsensus, PConsensus
from repro.core.cabcast import CAbcast
from repro.errors import ConfigurationError
from repro.fd.base import SuspectView
from repro.fd.heartbeat import HeartbeatSuspector
from repro.harness.abcast_runner import AbcastHost
from repro.harness.checkers import check_uniform_total_order
from repro.harness.consensus_runner import ConsensusHost
from repro.runtime import AsyncCluster
from repro.sim.network import ConstantDelay


def consensus_factory(protocol, proposal_of):
    """Hosts running consensus over a live heartbeat failure detector."""

    def factory(pid, pids):
        def module_factory(host, env):
            if protocol == "p":
                return PConsensus(env, host.fd_module)
            return LConsensus(env, host.fd_module.omega())

        return ConsensusHost(
            module_factory=module_factory,
            proposal=proposal_of(pid),
            fd_factory=lambda env: HeartbeatSuspector(
                env, period=0.01, initial_timeout=0.04
            ),
        )

    return factory


def run_async(coro):
    return asyncio.run(coro)


class TestLiveConsensus:
    def test_p_consensus_equal_proposals(self):
        async def main():
            cluster = AsyncCluster(
                4, consensus_factory("p", lambda pid: "v"), delay=ConstantDelay(0.002)
            )
            await cluster.start()
            await cluster.run(0.3)
            await cluster.shutdown()
            return {p: h.decision_value for p, h in cluster.processes.items()}

        decisions = run_async(main())
        assert set(decisions.values()) == {"v"}

    def test_l_consensus_mixed_proposals(self):
        async def main():
            cluster = AsyncCluster(
                4,
                consensus_factory("l", lambda pid: f"v{pid}"),
                delay=ConstantDelay(0.002),
            )
            await cluster.start()
            await cluster.run(0.4)
            await cluster.shutdown()
            return {p: h.decision_value for p, h in cluster.processes.items()}

        decisions = run_async(main())
        assert len(decisions) == 4
        assert len(set(decisions.values())) == 1

    def test_crash_during_live_run(self):
        async def main():
            cluster = AsyncCluster(
                4,
                consensus_factory("p", lambda pid: f"v{pid}"),
                delay=ConstantDelay(0.002),
            )
            await cluster.start()
            cluster.crash(3)
            await cluster.run(0.5)
            await cluster.shutdown()
            return {
                p: h.decision_value
                for p, h in cluster.processes.items()
                if p != 3 and h.decision_value
            }

        decisions = run_async(main())
        assert set(decisions) == {0, 1, 2}
        assert len(set(decisions.values())) == 1


class TestLiveAbcast:
    def test_cabcast_total_order_live(self):
        def factory(pid, pids):
            def module_factory(host, env):
                # An always-trusting ◇P view suffices for a short crash-free
                # live demo (stable run by construction).
                class Trusting(SuspectView):
                    def suspected(self):
                        return frozenset()

                    def subscribe(self, fn):
                        pass

                return CAbcast(env, lambda senv: PConsensus(senv, Trusting()))

            schedule = [(0.02 * (i + 1), f"m{pid}.{i}") for i in range(3)]
            return AbcastHost(module_factory=module_factory, schedule=schedule)

        async def main():
            cluster = AsyncCluster(3, factory, delay=ConstantDelay(0.002))
            await cluster.start()
            await cluster.run(0.6)
            await cluster.shutdown()
            return {p: h.abcast.delivered_ids for p, h in cluster.processes.items()}

        deliveries = run_async(main())
        check_uniform_total_order(deliveries)
        assert all(len(seq) == 9 for seq in deliveries.values())


class TestRuntimeMechanics:
    def test_time_scale_speeds_up_timers(self):
        import time

        from repro.sim.process import Process

        class TimerProc(Process):
            def __init__(self):
                self.fired_at = None
                self.started_at = None

            def on_start(self):
                self.started_at = time.monotonic()
                self.env.set_timer("t", 1.0)  # 1 protocol second

            def on_timer(self, name):
                self.fired_at = time.monotonic()

        async def main():
            cluster = AsyncCluster(1, lambda pid, pids: TimerProc(), time_scale=0.05)
            await cluster.start()
            await cluster.run(1.2)
            await cluster.shutdown()
            return cluster.processes[0]

        proc = run_async(main())
        assert proc.fired_at is not None
        assert proc.fired_at - proc.started_at < 0.5  # scaled down from 1s

    def test_reliable_fifo_live(self):
        from repro.sim.process import Process

        class Pair(Process):
            def __init__(self):
                self.received = []

            def on_start(self):
                if self.env.pid == 0:
                    for i in range(30):
                        self.env.send(1, i)

            def on_message(self, src, msg):
                self.received.append(msg)

        async def main():
            from repro.sim.network import UniformDelay

            cluster = AsyncCluster(
                2, lambda pid, pids: Pair(), delay=UniformDelay(0.0, 0.01)
            )
            await cluster.start()
            await cluster.run(0.3)
            await cluster.shutdown()
            return cluster.processes[1].received

        received = run_async(main())
        assert received == sorted(received)
        assert len(received) == 30

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            AsyncCluster(0, lambda pid, pids: None)
        with pytest.raises(ConfigurationError):
            AsyncCluster(2, lambda pid, pids: None, time_scale=0)
        with pytest.raises(ConfigurationError):
            AsyncCluster(2, lambda pid, pids: None, datagram_loss=2.0)

"""Protocol tests for C-Abcast (algorithm 3) with both consensus modules."""

import weakref

import pytest

from repro.core import Decide, LConsensus, LProp, PConsensus, PProp
from repro.core.abcast_base import RETIRED
from repro.core.cabcast import CAbcast
from repro.core.interfaces import ConsensusModule
from repro.fd.base import OmegaView, SuspectView
from repro.harness.abcast_runner import run_abcast
from repro.protocols import CtAbcast
from repro.sim.network import ConstantDelay, UniformDelay
from repro.sim.process import Scoped
from repro.sim.trace import Tracer

from tests.conftest import make_cabcast_l, make_cabcast_p
from tests.test_protocol_guards import FixedOmega, FixedSuspects, ScriptEnv

D = ConstantDelay(100e-6)


class TestBasicDelivery:
    @pytest.mark.parametrize("make", [make_cabcast_l, make_cabcast_p])
    def test_single_message_delivered_everywhere(self, make):
        result = run_abcast(make, 4, {0: [(0.001, "hello")]}, seed=1, horizon=5.0)
        for pid in range(4):
            assert result.deliveries[pid] == [(0, 1)]

    @pytest.mark.parametrize("make", [make_cabcast_l, make_cabcast_p])
    def test_no_collision_latency_is_two_delta(self, make):
        result = run_abcast(
            make, 4, {1: [(0.001, "x")]}, seed=2, delay=D, datagram_delay=D, horizon=5.0
        )
        assert result.latency_of((1, 1)) == pytest.approx(2 * 100e-6, rel=0.01)

    def test_collision_latency_is_three_delta_or_next_round(self):
        # Two concurrent senders: with jitter the WAB firsts differ, the
        # consensus falls back to the 2-step path — 3δ for the winner.
        result = run_abcast(
            make_cabcast_l,
            4,
            {1: [(0.001, "x")], 2: [(0.001, "y")]},
            seed=5,
            delay=UniformDelay(80e-6, 140e-6),
            datagram_delay=UniformDelay(50e-6, 250e-6),
            horizon=5.0,
        )
        latencies = sorted(result.latencies())
        assert len(latencies) == 2
        assert latencies[0] >= 2 * 80e-6  # at least 2 fast hops

    @pytest.mark.parametrize("make", [make_cabcast_l, make_cabcast_p])
    def test_total_order_under_concurrency(self, make):
        schedules = {
            p: [(0.0002 * i + 0.00005 * p, f"m{p}.{i}") for i in range(10)]
            for p in range(4)
        }
        result = run_abcast(
            make,
            4,
            schedules,
            seed=6,
            delay=UniformDelay(50e-6, 200e-6),
            datagram_delay=UniformDelay(50e-6, 300e-6),
            horizon=10.0,
        )
        # run_abcast already checked total order + validity; also all 40
        # messages must have been delivered everywhere.
        assert result.delivered_count == 40
        lengths = {len(seq) for seq in result.deliveries.values()}
        assert lengths == {40}

    def test_batching_under_burst(self):
        # All messages fired at one instant: they ride very few rounds.
        schedules = {p: [(0.001, f"b{p}.{i}") for i in range(5)] for p in range(4)}
        result = run_abcast(make_cabcast_l, 4, schedules, seed=7, horizon=10.0)
        assert result.delivered_count == 20
        host = result.hosts[0]
        assert host.abcast.rounds_completed < 20  # batched, not one per message


class TestRoundMachinery:
    def test_idle_process_wakes_on_foreign_round(self):
        # Only p3 ever sends; the others must join its WAB round.
        result = run_abcast(make_cabcast_l, 4, {3: [(0.001, "solo")]}, seed=8, horizon=5.0)
        assert all(seq == [(3, 1)] for seq in result.deliveries.values())

    def test_sequential_messages_use_sequential_rounds(self):
        schedule = {0: [(0.01 * (i + 1), f"s{i}") for i in range(5)]}
        result = run_abcast(make_cabcast_l, 4, schedule, seed=9, horizon=5.0)
        assert result.deliveries[0] == [(0, i + 1) for i in range(5)]
        assert result.hosts[0].abcast.rounds_completed == 5

    def test_estimate_merging_preserves_validity(self):
        # A message whose WAB broadcast loses every race still gets
        # delivered eventually (lines 16-17 fold it into estimates).
        schedules = {
            0: [(0.001 + 0.0005 * i, f"a{i}") for i in range(20)],
            3: [(0.00101, "straggler")],
        }
        result = run_abcast(
            make_cabcast_l,
            4,
            schedules,
            seed=10,
            datagram_delay=UniformDelay(50e-6, 500e-6),
            horizon=10.0,
        )
        for seq in result.deliveries.values():
            assert (3, 1) in seq

    def test_deterministic_intra_batch_order(self):
        # Messages decided in one batch are delivered sorted by (origin, seq).
        schedules = {p: [(0.001, f"x{p}")] for p in range(4)}
        result = run_abcast(make_cabcast_l, 4, schedules, seed=11, horizon=5.0)
        for seq in result.deliveries.values():
            batch_positions = {mid: i for i, mid in enumerate(seq)}
            ordered = sorted(seq)
            # Within this run everything may land in one or two batches; the
            # checker already guarantees identical order across processes.
            assert len(seq) == 4
        assert len({tuple(seq) for seq in result.deliveries.values()}) == 1


class TestFaultTolerance:
    @pytest.mark.parametrize("make", [make_cabcast_l, make_cabcast_p])
    def test_initial_crash(self, make):
        schedules = {0: [(0.001, "a")], 1: [(0.002, "b")]}
        result = run_abcast(
            make, 4, schedules, seed=12, initially_crashed=(3,), horizon=5.0
        )
        for pid in (0, 1, 2):
            assert set(result.deliveries[pid]) == {(0, 1), (1, 1)}

    def test_crash_mid_stream(self):
        schedules = {
            0: [(0.001 * (i + 1), f"a{i}") for i in range(10)],
            2: [(0.0015 * (i + 1), f"c{i}") for i in range(6)],
        }
        result = run_abcast(
            make_cabcast_l,
            4,
            schedules,
            seed=13,
            crash_at={2: 0.004},
            detection_delay=0.002,
            horizon=10.0,
            require_all_delivered=False,
        )
        # Survivors agree on a single sequence including all of p0's messages.
        for pid in (0, 1, 3):
            assert [m for m in result.deliveries[pid] if m[0] == 0] == [
                (0, i + 1) for i in range(10)
            ]

    def test_leader_crash_with_l_consensus(self):
        schedules = {1: [(0.001 * (i + 1), f"m{i}") for i in range(8)]}
        result = run_abcast(
            make_cabcast_l,
            4,
            schedules,
            seed=14,
            crash_at={0: 0.0035},
            detection_delay=0.002,
            horizon=10.0,
            require_all_delivered=False,
        )
        for pid in (1, 2, 3):
            assert [m for m in result.deliveries[pid] if m[0] == 1] == [
                (1, i + 1) for i in range(8)
            ]

    def test_determinism(self):
        schedules = {p: [(0.001 * (i + 1) + 0.0001 * p, f"m{p}.{i}") for i in range(4)] for p in range(4)}
        r1 = run_abcast(make_cabcast_p, 4, schedules, seed=15, horizon=10.0)
        r2 = run_abcast(make_cabcast_p, 4, schedules, seed=15, horizon=10.0)
        assert r1.deliveries == r2.deliveries
        assert r1.network_stats == r2.network_stats


# --------------------------------------------------------- instance lifetime

# (consensus module, the OracleFailureDetector method that hands out its view)
STACKS = [
    pytest.param(LConsensus, "omega", id="l"),
    pytest.param(PConsensus, "suspect", id="p"),
]


class TestInstanceLifetime:
    """A consensus instance ends at decision (docs/PROTOCOLS.md, Algorithm 3)."""

    @pytest.mark.parametrize("module, view_of", STACKS)
    def test_long_run_holds_only_the_rounds_in_flight(self, module, view_of):
        rounds = 2000
        alive = {pid: weakref.WeakSet() for pid in range(4)}
        peak = dict.fromkeys(range(4), 0)
        made = dict.fromkeys(range(4), 0)
        views = {}

        def make(pid, env, oracle, host):
            views[pid] = getattr(oracle, view_of)(pid)

            def consensus(senv):
                instance = module(senv, views[pid])
                made[pid] += 1
                alive[pid].add(instance)
                peak[pid] = max(peak[pid], len(alive[pid]))
                return instance

            return CAbcast(env, consensus)

        # Two jittered senders: some rounds are decided by a forwarded DECIDE
        # before the local PROPs arrive, some instances exist ahead of time.
        schedule = {
            p: [(0.001 * (i + 1) + 0.00013 * p, (p, i)) for i in range(rounds // 2)]
            for p in (0, 3)
        }
        result = run_abcast(
            make, 4, schedule, seed=3, horizon=3.0,
            delay=UniformDelay(50e-6, 200e-6),
            datagram_delay=UniformDelay(50e-6, 300e-6),
        )

        for pid, host in result.hosts.items():
            assert host.abcast.rounds_completed >= rounds
            # Sampled at every instance creation: never more than the rounds
            # in flight, however long the run.
            assert peak[pid] <= 4
            assert len(alive[pid]) == 0
            # Not even a RETIRED stand-in per decided round is left.
            assert len(host.abcast._instances) == 0
            assert sum(host.abcast.decision_tally.values()) == host.abcast.rounds_completed
            assert len(host.abcast._first_payload) == 0
            assert len(views[pid]._subscribers) == 0
            # Late PROP/DECIDE traffic for a retired round re-creates nothing.
            prop = LProp(1, "late", 1) if module is LConsensus else PProp(1, "late")
            for late in (prop, Decide(frozenset(), 1)):
                host.abcast.on_message(1, Scoped(("cons", 1), late))
            assert made[pid] == sum(host.abcast.decision_tally.values())
            assert len(host.abcast._instances) == 0

    @pytest.mark.parametrize(
        "module, view, prop, change",
        [
            (LConsensus, FixedOmega(1), LProp(1, "late", 1), 2),
            (PConsensus, FixedSuspects(), PProp(1, "late"), {1}),
        ],
    )
    def test_retired_round_drops_late_traffic(self, module, view, prop, change):
        env = ScriptEnv(pid=0, n=4)
        made = []

        def consensus(senv):
            made.append(module(senv, view))
            return made[-1]

        abcast = CAbcast(env, consensus)
        tracer = Tracer()
        abcast.enable_obs(tracer)
        abcast.on_message(1, Scoped(("cons", 1), Decide(frozenset(), 1)))
        assert made[0].decided and abcast._instances[1] is RETIRED
        assert abcast.round == 2

        sent, records = len(env.sent), len(tracer.records)
        abcast.on_message(2, Scoped(("cons", 1), prop))
        abcast.on_message(3, Scoped(("cons", 1), Decide(frozenset(), 1)))
        view.change(change)  # these views keep the callback: it must be guarded
        assert len(env.sent) == sent
        assert len(tracer.records) == records
        assert len(made) == 1 and abcast._instances[1] is RETIRED

    @pytest.mark.parametrize("reduction", [CAbcast, CtAbcast])
    def test_module_not_declared_inert_is_kept(self, reduction):
        class Acceptor(ConsensusModule):
            """Decides like any module, then must keep answering."""

            answered = 0

            def _start(self, value):
                self._decide(value, steps=1)

            def _on_protocol_message(self, src, msg):
                self.answered += 1

        abcast = reduction(ScriptEnv(pid=0, n=4), Acceptor)
        abcast.on_message(1, Scoped(("cons", 1), Decide(frozenset(), 2)))
        instance = abcast._instances[1]
        assert type(instance) is Acceptor and instance.decision.via == "forward"
        abcast.on_message(2, Scoped(("cons", 1), "phase-1a"))
        assert instance.answered == 1
        assert abcast.decision_tally == {("forward", 2): 1}

    @pytest.mark.parametrize("module, view_of", STACKS)
    def test_view_without_unsubscribe_still_completes(self, module, view_of):
        class LegacyView(OmegaView, SuspectView):
            """A user-defined view written before ``unsubscribe`` existed."""

            def __init__(self, oracle, pid):
                self._omega = oracle.omega(pid)
                self._suspects = oracle.suspect(pid)
                self._subscribe = getattr(oracle, view_of)(pid).subscribe

            def leader(self):
                return self._omega.leader()

            def suspected(self):
                return self._suspects.suspected()

            def subscribe(self, fn):
                self._subscribe(fn)

        def make(pid, env, oracle, host):
            view = LegacyView(oracle, pid)
            return CAbcast(env, lambda senv: module(senv, view))

        schedule = {1: [(0.001 * (i + 1), i) for i in range(20)]}
        result = run_abcast(
            make, 4, schedule, seed=4, crash_at={0: 0.0105},
            detection_delay=0.002, horizon=5.0, require_all_delivered=False,
        )
        for pid in (1, 2, 3):
            assert result.deliveries[pid] == [(1, i + 1) for i in range(20)]

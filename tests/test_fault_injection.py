"""Fault-injection tests: deliberately broken protocols must be *caught*.

A green safety suite only means something if the checkers detect real
violations.  Each test here wires a subtly sabotaged protocol variant into
the standard harness and asserts the corresponding checker fires.
"""

import pytest

from repro.core import LConsensus, PConsensus
from repro.core.values import value_with_count_at_least
from repro.errors import (
    AgreementViolation,
    ProtocolViolation,
    TerminationFailure,
    ValidityViolation,
)
from repro.harness import run_consensus
from repro.harness.abcast_runner import run_abcast
from repro.sim.network import UniformDelay

from tests.conftest import make_cabcast_l


class GreedyLConsensus(LConsensus):
    """Sabotage: decides on n - f equal values WITHOUT the leader's backing
    (the naive one-step patch that Theorem 1 forbids)."""

    def _try_complete_round(self):
        received = self._props.get(self.round, {})
        n, f = self.env.n, self.f
        if len(received) < n - f:
            return
        candidate = value_with_count_at_least(
            (m.est for m in received.values()), n - f
        )
        if candidate is not None:
            self._decide(candidate, steps=self.round)
            return
        super()._try_complete_round()


class SelfishCAbcastConsensus(PConsensus):
    """Sabotage: decides its own proposal immediately — breaks total order."""

    def _start(self, value):
        self._decide(value, steps=0)


class TestConsensusCheckersHaveTeeth:
    def test_greedy_one_step_violates_agreement_under_jitter(self):
        # Split proposals plus jitter: some seed makes a greedy decider see
        # n - f equal values while the leader pushes the other value.  The
        # leader crash is expressed as a declarative nemesis schedule — the
        # same fault the fuzzer would synthesise (see tests/test_fuzz.py).
        from repro.nemesis import CrashOp, NemesisSpec

        def make(pid, env, oracle, host):
            return GreedyLConsensus(env, oracle.omega(pid))

        leader_crash = NemesisSpec((CrashOp(at=0.0008, pid=0),))
        violations = 0
        for seed in range(40):
            try:
                run_consensus(
                    make,
                    {0: "b", 1: "a", 2: "a", 3: "a"},
                    seed=seed,
                    delay=UniformDelay(1e-4, 3e-3),
                    horizon=5.0,
                    nemesis=leader_crash,
                    detection_delay=1e-3,
                )
            except ProtocolViolation:
                violations += 1
            except TerminationFailure:
                pass
        assert violations > 0, "sabotaged protocol was never caught"

    def test_selfish_decider_caught_immediately(self):
        def make(pid, env, oracle, host):
            return SelfishCAbcastConsensus(env, oracle.suspect(pid))

        with pytest.raises(AgreementViolation):
            run_consensus(make, {0: "a", 1: "b", 2: "c", 3: "d"}, seed=1)

    def test_invented_value_caught_by_validity(self):
        class Inventor(PConsensus):
            def _start(self, value):
                self._decide("made-up-value", steps=0)

        def make(pid, env, oracle, host):
            return Inventor(env, oracle.suspect(pid))

        with pytest.raises(ValidityViolation):
            run_consensus(make, {p: "real" for p in range(4)}, seed=2)


class TestAbcastCheckersHaveTeeth:
    def test_locally_delivering_abcast_caught(self):
        # An "abcast" that delivers its own messages immediately and ignores
        # everyone else must trip the total-order/validity checkers.
        from repro.core.abcast_base import AbcastModule

        class LocalOnly(AbcastModule):
            def _submit(self, message):
                self._deliver_batch([message])

            def on_message(self, src, msg):
                pass

        def make(pid, env, oracle, host):
            return LocalOnly(env)

        schedules = {0: [(0.001, "a")], 1: [(0.0012, "b")]}
        with pytest.raises(ProtocolViolation):
            run_abcast(make, 4, schedules, seed=3, horizon=2.0)

    def test_duplicate_delivery_caught(self):
        from repro.core.abcast_base import AbcastModule, AppMessage

        class Duplicator(AbcastModule):
            def _submit(self, message):
                self.env.broadcast(message)

            def on_message(self, src, msg):
                if isinstance(msg, AppMessage):
                    # Bypass the dedup guard on purpose.
                    self.delivered_ids.append(msg.msg_id)
                    self.delivered_ids.append(msg.msg_id)

        def make(pid, env, oracle, host):
            return Duplicator(env)

        with pytest.raises(ProtocolViolation):
            run_abcast(make, 4, {0: [(0.001, "a")]}, seed=4, horizon=2.0)

    def test_stalled_abcast_reported_as_termination_failure(self):
        from repro.core.abcast_base import AbcastModule

        class BlackHole(AbcastModule):
            def _submit(self, message):
                pass

            def on_message(self, src, msg):
                pass

        def make(pid, env, oracle, host):
            return BlackHole(env)

        with pytest.raises(TerminationFailure):
            run_abcast(make, 4, {0: [(0.001, "a")]}, seed=5, horizon=1.0)


class TestHonestProtocolsSurviveTheSameGauntlet:
    def test_honest_l_consensus_same_scenario_as_greedy(self):
        from tests.conftest import make_l

        for seed in range(40):
            try:
                run_consensus(
                    make_l,
                    {0: "b", 1: "a", 2: "a", 3: "a"},
                    seed=seed,
                    delay=UniformDelay(1e-4, 3e-3),
                    horizon=5.0,
                    crash_at={0: 0.0008},
                    detection_delay=1e-3,
                )
            except TerminationFailure:
                pass  # acceptable: short horizon, never a safety violation

    def test_honest_cabcast_under_duplicating_network_conditions(self):
        schedules = {p: [(0.0005 * i, f"m{p}.{i}") for i in range(6)] for p in range(4)}
        run_abcast(
            make_cabcast_l,
            4,
            schedules,
            seed=6,
            delay=UniformDelay(1e-4, 2e-3),
            datagram_delay=UniformDelay(1e-4, 3e-3),
            horizon=20.0,
        )

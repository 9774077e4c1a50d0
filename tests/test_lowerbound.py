"""Tests for the executable Theorem-1 lower bound (model, certificate, rules)."""

import dataclasses
import hashlib
import json
from collections import Counter

import pytest

from repro.core.lowerbound import (
    BrasileiroRule,
    DecisionRule,
    LConsensusRule,
    NaiveCombinedRule,
    RunSpec,
    build_runs,
    check_rule,
    format_state1,
    hear_options,
    one_step_value,
    prove_theorem1,
    state1,
    state2,
)
from repro.errors import ConfigurationError

RULES = (NaiveCombinedRule, LConsensusRule, BrasileiroRule)


@pytest.fixture(scope="module")
def certificate():
    return prove_theorem1()


@pytest.fixture(scope="module")
def runs():
    return build_runs()


@pytest.fixture(scope="module")
def reports():
    """Each reference rule's report, by rule name."""
    return {rule.name: check_rule(rule()) for rule in RULES}


def spec(initial, hears1, hears2):
    return RunSpec(tuple(initial), tuple(hears1), tuple(hears2))


ALL_123 = ((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 4))


class TestModel:
    def test_state1_shows_heard_values(self):
        run = spec((0, 1, 1, 1), ALL_123, ALL_123)
        assert state1(run, 1) == (0, 1, 1, None)
        assert format_state1(state1(run, 1)) == "011-"

    def test_state1_of_p4_with_its_own_hear_set(self):
        run = spec((0, 1, 1, 1), ((1, 2, 3),) * 3 + ((2, 3, 4),), ALL_123)
        assert format_state1(state1(run, 4)) == "-111"

    def test_state2_nests_round1_states(self):
        run = spec((0, 1, 1, 1), ALL_123, ALL_123)
        s2 = state2(run, 1)
        assert s2[0] == state1(run, 1)
        assert s2[3] is None

    def test_state2_contains_own_state1(self):
        run = spec((1, 0, 1, 0), ALL_123, ALL_123)
        for pid in (1, 2, 3):
            assert state2(run, pid)[pid - 1] == state1(run, pid)

    def test_one_step_value(self):
        assert one_step_value((None, 1, 1, 1)) == 1
        assert one_step_value((0, 0, None, 0)) == 0
        assert one_step_value((0, 1, 1, None)) is None

    def test_hear_options_contain_self(self):
        for pid in (1, 2, 3, 4):
            options = hear_options(pid)
            assert len(options) == 3
            assert all(pid in o for o in options)

    def test_runspec_validation(self):
        with pytest.raises(ConfigurationError):
            spec((0, 1, 1, 1), ((1, 2),) * 4, ALL_123)  # hear-set too small
        with pytest.raises(ConfigurationError):
            spec((0, 1, 1, 1), ((2, 3, 4),) + ((1, 2, 3),) * 3, ALL_123)  # p1 not in own set


class TestTheorem1:
    def test_certificate_exists_on_reduced_space(self, certificate):
        cert = certificate
        assert cert.length >= 2
        # The two chains anchor at opposite one-step obligations.
        assert cert.chain_one[0].value == 1
        assert cert.chain_zero[0].value == 0
        assert "one-step" in cert.chain_one[0].reason
        assert "one-step" in cert.chain_zero[0].reason

    def test_certificate_explanation_is_readable(self, certificate):
        cert = certificate
        text = cert.explain()
        assert "Theorem 1" in text
        assert "val=1" in text and "val=0" in text

    def test_chain_links_share_states_with_neighbours(self, certificate):
        # Verify the certificate mechanically: consecutive links must share
        # either a pivot's two-round state or all survivors' states.
        cert = certificate
        for chain in (cert.chain_one, cert.chain_zero):
            for a, b in zip(chain, chain[1:]):
                shared_pivot = any(
                    state2(a.run.spec, pid) == state2(b.run.spec, pid)
                    for pid in (1, 2, 3, 4)
                )
                assert shared_pivot, f"no shared state between links:\n{a}\n{b}"

    def test_run_space_is_nontrivial(self, runs):
        stable, crash = runs
        assert len(stable) > 1000
        assert len(crash) > 100

    def test_crash_runs_have_survivor_round2_sets(self, runs):
        _, crash = runs
        for run in crash[:50]:
            for pid in (2, 3, 4):
                assert run.spec.hears2[pid - 1] == (2, 3, 4)


class TestRules:
    def test_naive_combined_is_one_step_and_zero_degrading_but_unsafe(self, reports):
        report = reports["naive-combined"]
        assert report.is_one_step
        assert report.is_zero_degrading
        assert not report.is_safe
        assert report.runs_checked > 100_000

    def test_l_consensus_rule_is_safe_and_zero_degrading_not_one_step(self, reports):
        report = reports["l-consensus"]
        assert not report.is_one_step
        assert report.is_zero_degrading
        assert report.is_safe

    def test_brasileiro_rule_is_safe_and_one_step_not_zero_degrading(self, reports):
        report = reports["brasileiro"]
        assert report.is_one_step
        assert not report.is_zero_degrading
        assert report.is_safe

    def test_every_rule_fails_something(self, reports):
        # Theorem 1: no rule can have all three properties.
        for report in reports.values():
            assert not (report.is_one_step and report.is_zero_degrading and report.is_safe)

    def test_report_summary_format(self, reports):
        report = reports["naive-combined"]
        assert "naive-combined" in report.summary()
        assert "NO" in report.summary()


class CountingRule(DecisionRule):
    """Delegates to ``inner`` and counts calls per (method, pid, state)."""

    def __init__(self, inner: DecisionRule):
        self.inner = inner
        self.name = inner.name
        self.calls: Counter = Counter()

    def _call(self, method: str, pid: int, state: tuple):
        self.calls[method, pid, state] += 1
        return getattr(self.inner, method)(pid, state)

    def acceptable1(self, pid, s1):
        return self._call("acceptable1", pid, s1)

    def decide1(self, pid, s1):
        return self._call("decide1", pid, s1)

    def acceptable2(self, pid, s2):
        return self._call("acceptable2", pid, s2)

    def decide2(self, pid, s2):
        return self._call("decide2", pid, s2)


class TestOncePerState:
    @pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
    def test_each_method_runs_once_per_distinct_state(self, rule, reports):
        counting = CountingRule(rule())
        assert check_rule(counting) == reports[rule.name]
        assert {method for method, _, _ in counting.calls} == {
            "acceptable1", "decide1", "acceptable2", "decide2"
        }
        assert max(counting.calls.values()) == 1


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestOutputPins:
    """sha256 of everything the model prints or returns, witness order and
    wording included: the property tests above would pass a rewrite that
    reorders or rewords witnesses."""

    def test_certificate_explanation(self, certificate):
        assert sha256(certificate.explain()) == (
            "751276bbf44e31a17743bc59f634685e53d8444032120a856131ffd33d4e1359"
        )

    def test_run_lists(self, runs):
        stable, crash = runs
        assert (len(stable), len(crash)) == (28_152, 1_836)
        assert sha256("\n".join(run.describe() for run in stable)) == (
            "7d9b044c3067719eebf4c6841dee2ef41640febe4a98b2c65c6d53dee45e0e77"
        )
        assert sha256("\n".join(run.describe() for run in crash)) == (
            "70ecf835d0eb4590d1467327685c7aaebfb1756c1c3436e60de179c4981df26e"
        )

    @pytest.mark.parametrize(
        "rule, digest",
        [
            pytest.param(
                NaiveCombinedRule,
                "0398d89f6cfd951e995d532574a60819ba391b08e9bc4d62953dc872b33bf561",
                id="naive-combined",
            ),
            pytest.param(
                LConsensusRule,
                "666bb80240361a06300d9becddb0f57d8eb0d818ca94ab6e8956e83e8d4582e1",
                id="l-consensus",
            ),
            pytest.param(
                BrasileiroRule,
                "48364ee907a0c19ecfb01527d0eaec7f4f255827ac29a7c692fcadb4ac407765",
                id="brasileiro",
            ),
        ],
    )
    def test_rule_report(self, rule, digest, reports):
        report = reports[rule.name]
        assert sha256(json.dumps(dataclasses.asdict(report), sort_keys=True)) == digest

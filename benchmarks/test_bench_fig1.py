"""Figure 1 / Theorem 1 — the executable lower-bound proof.

Regenerates the content of Figure 1: a chain of indistinguishable runs that
forces any one-step AND zero-degrading Ω-protocol into an agreement
violation.  The chain here is *discovered* by constraint propagation over
the full-information run space rather than transcribed from the paper, and
the three reference decision rules are graded to trace the boundary of the
theorem (each achievable pair of properties, never all three).
"""

from repro.core.lowerbound import (
    BrasileiroRule,
    LConsensusRule,
    NaiveCombinedRule,
    check_rule,
    prove_theorem1,
)

from conftest import once


def test_fig1_theorem1_certificate(benchmark, report):
    certificate = once(benchmark, prove_theorem1)

    report.line("Figure 1 / Theorem 1 — machine-checked impossibility chain")
    report.line("=" * 64)
    report.line(certificate.explain())
    report.emit("fig1_certificate")

    assert certificate.chain_one[0].value == 1
    assert certificate.chain_zero[0].value == 0
    assert certificate.length >= 2


def test_fig1_rule_boundary(benchmark, report):
    def grade_all():
        return [
            check_rule(rule)
            for rule in (NaiveCombinedRule(), LConsensusRule(), BrasileiroRule())
        ]

    reports = once(benchmark, grade_all)

    report.line("Theorem 1 boundary — reference protocol skeletons")
    report.line("=" * 64)
    for r in reports:
        report.line(r.summary())
    report.line()
    report.line(
        "Each rule achieves exactly two of {one-step, zero-degrading, safe};"
    )
    report.line("Theorem 1 forbids all three, and the sweep confirms it.")
    report.emit("fig1_rules")

    naive, l_rule, brasileiro = reports
    assert naive.is_one_step and naive.is_zero_degrading and not naive.is_safe
    assert l_rule.is_safe and l_rule.is_zero_degrading and not l_rule.is_one_step
    assert brasileiro.is_safe and brasileiro.is_one_step and not brasileiro.is_zero_degrading

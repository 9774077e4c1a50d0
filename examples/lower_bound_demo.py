#!/usr/bin/env python3
"""Theorem 1, executed: why one-step + zero-degradation is impossible on Ω.

Two artifacts from section 4 of the paper:

1. the machine-discovered Figure-1 chain — constraint propagation over the
   full-information run space (n = 4, f = 1, Ω ≡ p1) forces some run to
   decide both 0 and 1 under the combined obligations;
2. the boundary of the theorem — three concrete protocol skeletons, each
   achieving exactly two of {one-step, zero-degrading, safe}:

       naive-combined   one-step + zero-degrading  →  UNSAFE
       l-consensus      zero-degrading + safe      →  not one-step
       brasileiro       one-step + safe            →  not zero-degrading

Usage:  python examples/lower_bound_demo.py
"""

from repro.core.lowerbound import (
    BrasileiroRule,
    LConsensusRule,
    NaiveCombinedRule,
    check_rule,
    prove_theorem1,
)


def main() -> None:
    print("=" * 72)
    print("Part 1 — the impossibility certificate (Figure 1, rediscovered)")
    print("=" * 72)
    certificate = prove_theorem1()
    print(certificate.explain())

    print()
    print("=" * 72)
    print("Part 2 — the boundary: what concrete decision rules achieve")
    print("=" * 72)
    for rule in (NaiveCombinedRule(), LConsensusRule(), BrasileiroRule()):
        report = check_rule(rule)
        print(f"\n{report.summary()}")
        for violation in report.safety_violations[:1]:
            print(f"  witness: {violation}")
        for violation in report.one_step_failures[:1]:
            print(f"  witness: {violation}")
        for violation in report.zero_degradation_failures[:1]:
            print(f"  witness: {violation}")

    print()
    print("Every rule loses exactly one property — as Theorem 1 demands.")


if __name__ == "__main__":
    main()

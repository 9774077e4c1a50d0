"""Executable Theorem 1 (section 4, Figure 1): the one-step/zero-degradation
lower bound for Ω-based consensus."""

from repro.core.lowerbound.checker import RuleReport, check_rule
from repro.core.lowerbound.model import (
    LEADER,
    PIDS,
    RunSpec,
    format_state1,
    hear_options,
    one_step_value,
    run_space,
    state1,
    state2,
)
from repro.core.lowerbound.rules import (
    BrasileiroRule,
    DecisionRule,
    LConsensusRule,
    NaiveCombinedRule,
)
from repro.core.lowerbound.theorem import (
    Certificate,
    ChainLink,
    Run,
    build_runs,
    prove_theorem1,
)

__all__ = [
    "LEADER",
    "PIDS",
    "RunSpec",
    "format_state1",
    "hear_options",
    "one_step_value",
    "run_space",
    "state1",
    "state2",
    "RuleReport",
    "check_rule",
    "DecisionRule",
    "NaiveCombinedRule",
    "LConsensusRule",
    "BrasileiroRule",
    "Certificate",
    "ChainLink",
    "Run",
    "build_runs",
    "prove_theorem1",
]

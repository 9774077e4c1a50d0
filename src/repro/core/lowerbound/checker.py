"""Property checker for concrete decision rules in the lower-bound model.

Given a :class:`~repro.core.lowerbound.rules.DecisionRule`, the checker
sweeps the (rule-realizable) stable run space and reports, with witnesses:

* **one-step failures** — round-1 states with ``n - f`` equal values where
  the rule keeps waiting or decides late/wrong (Definition 1);
* **zero-degradation failures** — stable runs in which some process reaches
  the end of round 2 undecided (Definition 3);
* **safety violations** — runs whose decisions disagree, or decide a value
  nobody proposed.

Theorem 1 guarantees that every rule fails at least one category; the test
suite checks that each of the three reference rules fails *exactly* the
expected one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.core.lowerbound.model import (
    PIDS,
    RunSpec,
    format_state1,
    one_step_value,
    run_space,
)
from repro.core.lowerbound.rules import DecisionRule

__all__ = ["RuleReport", "check_rule"]

WITNESSES = 5  # witnesses kept per failed property
WAITS = object()  # the process would not end the round in that state


@dataclass
class RuleReport:
    """Verdict for one decision rule."""

    rule: str
    one_step_failures: list[str] = field(default_factory=list)
    zero_degradation_failures: list[str] = field(default_factory=list)
    safety_violations: list[str] = field(default_factory=list)
    runs_checked: int = 0

    @property
    def is_one_step(self) -> bool:
        return not self.one_step_failures

    @property
    def is_zero_degrading(self) -> bool:
        return not self.zero_degradation_failures

    @property
    def is_safe(self) -> bool:
        return not self.safety_violations

    def summary(self) -> str:
        def mark(ok: bool) -> str:
            return "yes" if ok else "NO"

        return (
            f"{self.rule}: one-step={mark(self.is_one_step)} "
            f"zero-degrading={mark(self.is_zero_degrading)} "
            f"safe={mark(self.is_safe)} ({self.runs_checked} runs)"
        )


def _one_step_states() -> list[tuple]:
    """Every round-1 state with n - f equal values (one missing entry)."""
    states = []
    for missing in PIDS:
        for v in (0, 1):
            states.append(tuple(None if q == missing else v for q in PIDS))
    return states


def check_rule(rule: DecisionRule) -> RuleReport:
    """Sweep the stable run space and grade ``rule`` on the three properties.

    Every rule method runs at most once per distinct ``(pid, state)``: a
    process's behaviour by round 2 is a function of its state alone.
    """
    report = RuleReport(rule=rule.name)

    @functools.cache
    def round1(pid: int, s1: tuple):
        """The round-1 decision (or None), or WAITS."""
        return rule.decide1(pid, s1) if rule.acceptable1(pid, s1) else WAITS

    @functools.cache
    def round2(pid: int, s2: tuple):
        """The round-2 decision (or None) of a process undecided in round 1,
        or WAITS."""
        return rule.decide2(pid, s2) if rule.acceptable2(pid, s2) else WAITS

    # --- one-step obligations are state-level; check them directly.
    for s1 in _one_step_states():
        v = one_step_value(s1)
        pid = next(q for q in PIDS if s1[q - 1] is not None)
        decided = round1(pid, s1)
        if decided is WAITS:
            report.one_step_failures.append(
                f"p{pid} keeps waiting in state {format_state1(s1)} "
                f"instead of deciding {v} in one step"
            )
        elif decided != v:
            report.one_step_failures.append(
                f"p{pid} in state {format_state1(s1)} decides {decided!r}, "
                f"one-step requires {v}"
            )

    # --- zero-degradation and safety need the run sweep.  A run is
    # realizable for this rule only if every process is willing to end its
    # rounds on the chosen hear-sets (a process that already decided in
    # round 1 no longer waits).
    for initial, hears1, hears2, states1, states2 in run_space():
        decisions: dict[int, int] = {}
        undecided: list[int] = []
        for pid, s1, s2 in zip(PIDS, states1, states2):
            decided = round1(pid, s1)
            if decided is None:
                decided = round2(pid, s2)
            if decided is WAITS:
                break
            if decided is None:
                undecided.append(pid)
            else:
                decisions[pid] = decided
        else:  # every process ends both rounds: the run is realizable
            report.runs_checked += 1
            if undecided and len(report.zero_degradation_failures) < WITNESSES:
                report.zero_degradation_failures.append(
                    f"{_describe(initial, hears1, hears2)}: p{undecided} undecided "
                    f"after round 2 of a stable run"
                )
            distinct = set(decisions.values())
            if len(distinct) > 1 and len(report.safety_violations) < WITNESSES:
                report.safety_violations.append(
                    f"{_describe(initial, hears1, hears2)}: agreement violated — "
                    f"decisions {decisions}"
                )
            bad = distinct - set(initial)
            if bad and len(report.safety_violations) < WITNESSES:
                report.safety_violations.append(
                    f"{_describe(initial, hears1, hears2)}: validity violated — "
                    f"decided {bad}, proposed {set(initial)}"
                )
    return report


def _describe(initial: tuple, hears1: tuple, hears2: tuple) -> str:
    return f"run({RunSpec(initial, hears1, hears2).describe()})"

"""Machine-checked Theorem 1: one-step ∧ zero-degradation is impossible on Ω.

This module re-derives the paper's Figure-1 contradiction automatically.
Instead of hard-coding the eight runs R1..R8, it builds the full constraint
system the proof reasons with and lets breadth-first propagation find an
indistinguishability chain ending in a contradiction.  The produced
:class:`Certificate` *is* Figure 1 — each link names the runs, the pivot
process and the forced value — except discovered rather than transcribed.

The constraint system (for ``n = 4, f = 1``, Ω ≡ p1 as in the proof):

* **stable runs** — no crashes; by Definition 2 every such run is stable, so
  zero-degradation obliges every process to decide by round 2; that decision
  is a deterministic function ``D`` of the process's two-round state, and
  agreement + validity tie all of a run's decisions to one value
  ``val(R) ∈ {proposed values}``.
* **one-step obligations** — a round-1 state with ``n - f`` equal values
  ``v`` forces an immediate decision ``v`` (indistinguishable from an
  all-``v`` run with an initial crash), seeding ``val(R) = v``.
* **crash runs** — p1 completes round 2 and then crashes, its round-2
  messages lost.  p1 cannot distinguish this from a stable run with the same
  state, so ``D`` applies to its state; the survivors decide only eventually,
  but termination + agreement still give the run a single value, and two
  crash runs in which all three survivors have identical two-round states
  have a common continuation — hence the same value.
* **realizability** — the chain must apply to *every* one-step protocol,
  including leader-waiting ones (which refuse to end a round without p1's
  message while Ω outputs p1).  A hear-set that omits p1 is therefore only
  used when its values are all equal (the one-step obligation forces the
  process to act) or when p1 has crashed (survivor round-2 sets).

Running :func:`prove_theorem1` propagates values from the one-step seeds
through the equality edges until a run is forced to two different values —
the agreement/validity contradiction of the proof.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.core.lowerbound.model import (
    LEADER,
    N,
    PIDS,
    RunSpec,
    format_state1,
    one_step_value,
    run_space,
)
from repro.errors import ReproError

__all__ = ["Run", "ChainLink", "Certificate", "prove_theorem1", "build_runs"]

SURVIVOR_ROUND2 = tuple(sorted(set(PIDS) - {LEADER}))
SURVIVORS_HEAR = (SURVIVOR_ROUND2,) * (N - 1)  # hears2 of p2..p4 in a crash run


@dataclass(frozen=True)
class Run:
    """A run of the constraint system: a :class:`RunSpec` plus crash flag."""

    spec: RunSpec
    p1_crashes: bool  # p1 crashes after round 2; its round-2 messages are lost

    def describe(self) -> str:
        kind = "crash(p1)" if self.p1_crashes else "stable"
        return f"[{kind} {self.spec.describe()}]"


@dataclass(frozen=True)
class ChainLink:
    """One propagation step of the discovered Figure-1 chain."""

    run: Run
    value: int
    reason: str


@dataclass
class Certificate:
    """A machine-checked witness of Theorem 1."""

    chain_zero: list[ChainLink]
    chain_one: list[ChainLink]
    conflict_run: Run

    @property
    def length(self) -> int:
        return len(self.chain_zero) + len(self.chain_one)

    def explain(self) -> str:
        lines = [
            "Theorem 1 certificate: assuming a one-step AND zero-degrading",
            "Omega-based protocol (n=4, f=1, Omega = p1 as in the paper's proof),",
            f"run {self.conflict_run.describe()} is forced to decide both 0 and 1.",
            "",
            "Chain forcing value 1:",
        ]
        for link in self.chain_one:
            lines.append(f"  val=1 in {link.run.describe()}  [{link.reason}]")
        lines.append("")
        lines.append("Chain forcing value 0:")
        for link in self.chain_zero:
            lines.append(f"  val=0 in {link.run.describe()}  [{link.reason}]")
        lines.append("")
        lines.append(
            "Both chains meet: agreement (or validity) is violated, so no such"
            " protocol exists — Theorem 1."
        )
        return "\n".join(lines)


def _realizable_runs() -> tuple[list[tuple], list[tuple]]:
    """The stable and crash runs realizable for every one-step protocol,
    including leader-waiting ones, as :func:`run_space` yields them
    (``run[:3]`` is a :class:`RunSpec`'s fields).

    A crash run is one whose survivors' round-2 sets are {2,3,4} (p1's
    round-2 messages are lost); its round-1 constraints are as in stable
    runs.
    """
    stable: list[tuple] = []
    crash: list[tuple] = []
    for run in run_space():
        _, hears1, hears2, states1, _ = run
        obliged = [one_step_value(s1) is not None for s1 in states1]
        if not all(forced or LEADER in hears for forced, hears in zip(obliged, hears1)):
            continue
        if all(forced or LEADER in hears for forced, hears in zip(obliged, hears2)):
            stable.append(run)
        if hears2[1:] == SURVIVORS_HEAR:
            crash.append(run)
    return stable, crash


def build_runs() -> tuple[list[Run], list[Run]]:
    """Enumerate realizable stable and crash runs of the model."""
    stable, crash = _realizable_runs()
    return (
        [Run(RunSpec(*run[:3]), False) for run in stable],
        [Run(RunSpec(*run[:3]), True) for run in crash],
    )


def prove_theorem1() -> Certificate:
    """Derive the Theorem-1 contradiction by constraint propagation.

    Returns a :class:`Certificate`; raises :class:`ReproError` if no
    contradiction is found (which would falsify the reproduction — the test
    suite asserts it never happens).  A :class:`Run` is built only for the
    runs of the certificate's chains.
    """
    stable, crash = _realizable_runs()
    runs = stable + crash
    offset = len(stable)

    def run_of(index: int) -> Run:
        return Run(RunSpec(*runs[index][:3]), p1_crashes=index >= offset)

    # Equality edges.  Key 1: decisions-by-round-2 are a function of the
    # two-round state, defined for every process of a stable run and for p1
    # of a crash run whenever the same state occurs in some stable run.
    d_key_to_runs: dict[tuple[int, tuple], list[int]] = {}
    stable_d_keys: set[tuple[int, tuple]] = set()
    for index, (*_, states2) in enumerate(stable):
        for key in zip(PIDS, states2):
            stable_d_keys.add(key)
            d_key_to_runs.setdefault(key, []).append(index)
    for index, (*_, states2) in enumerate(crash):
        key = (LEADER, states2[LEADER - 1])
        if key in stable_d_keys:
            d_key_to_runs.setdefault(key, []).append(offset + index)

    # Key 2: two crash runs whose three survivors have identical two-round
    # states share a continuation, hence an eventual decision value.
    future_key_to_runs: dict[tuple, list[int]] = {}
    for index, (*_, states2) in enumerate(crash):
        key = tuple(states2[pid - 1] for pid in SURVIVOR_ROUND2)
        future_key_to_runs.setdefault(key, []).append(offset + index)

    adjacency: dict[int, list[tuple[int, str]]] = {}

    def connect(members: list[int], reason: str) -> None:
        for a, b in zip(members, members[1:]):
            adjacency.setdefault(a, []).append((b, reason))
            adjacency.setdefault(b, []).append((a, reason))

    for (pid, _), members in d_key_to_runs.items():
        if len(members) > 1:
            connect(members, f"p{pid} has the same two-round state (decides alike by round 2)")
    for members in future_key_to_runs.values():
        if len(members) > 1:
            connect(members, "all survivors share states; common continuation")

    # Seeds: one-step obligations.
    value_of: dict[int, int] = {}
    parent: dict[int, tuple[int | None, str]] = {}
    queue: deque[int] = deque()
    for index, (_, _, _, states1, _) in enumerate(runs):
        for pid, s1 in zip(PIDS, states1):
            forced = one_step_value(s1)
            if forced is None or value_of.get(index) == forced:
                continue
            reason = (
                f"one-step: p{pid} received {format_state1(s1)} "
                f"(n-f equal values) and must decide {forced} immediately"
            )
            if index in value_of:
                return _certificate(run_of, value_of, parent, index, forced, reason)
            value_of[index] = forced
            parent[index] = (None, reason)
            queue.append(index)

    # Propagate.
    while queue:
        current = queue.popleft()
        value = value_of[current]
        for neighbour, reason in adjacency.get(current, ()):  # noqa: B905
            if neighbour in value_of:
                if value_of[neighbour] != value:
                    return _certificate(
                        run_of, value_of, parent, neighbour, value, reason, via=current
                    )
                continue
            value_of[neighbour] = value
            parent[neighbour] = (current, reason)
            queue.append(neighbour)

    raise ReproError(
        "no contradiction found — the Theorem 1 propagation space is too small"
    )


def _trace(
    run_of: Callable[[int], Run],
    value_of: dict[int, int],
    parent: dict[int, tuple[int | None, str]],
    index: int,
) -> list[ChainLink]:
    links: list[ChainLink] = []
    cursor: int | None = index
    while cursor is not None:
        origin, reason = parent[cursor]
        links.append(ChainLink(run_of(cursor), value_of[cursor], reason))
        cursor = origin
    links.reverse()
    return links


def _certificate(
    run_of: Callable[[int], Run],
    value_of: dict[int, int],
    parent: dict[int, tuple[int | None, str]],
    conflict: int,
    incoming_value: int,
    reason: str,
    via: int | None = None,
) -> Certificate:
    existing_chain = _trace(run_of, value_of, parent, conflict)
    if via is not None:
        incoming_chain = _trace(run_of, value_of, parent, via)
    else:
        incoming_chain = []
    incoming_chain.append(ChainLink(run_of(conflict), incoming_value, reason))
    if value_of[conflict] == 0:
        chain_zero, chain_one = existing_chain, incoming_chain
    else:
        chain_zero, chain_one = incoming_chain, existing_chain
    return Certificate(
        chain_zero=chain_zero, chain_one=chain_one, conflict_run=run_of(conflict)
    )

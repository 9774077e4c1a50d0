"""Full-information run model behind the Theorem-1 lower bound (section 4).

The proof of Theorem 1 argues about two-round runs of an arbitrary
*full-information* protocol for ``n = 4, f = 1``: in every round each process
broadcasts its complete state and then acts on the messages received from
``n - f = 3`` processes (one entry missing — waiting for the fourth message
is not fault-tolerant, so the adversary may withhold it).

This module is the executable version of the proof's "Preliminary notes":

* a :class:`RunSpec` fixes the initial values and, per round, which
  3-process subset (always containing itself) each process hears;
* :func:`state1` / :func:`state2` compute the paper's state vectors — a
  process's state after round 1 is the received initial values
  (``011-`` style), after round 2 the vector of round-1 states of the
  processes heard (the ``s1 .. s5`` matrices of Figure 1);
* :func:`run_space` enumerates every run with its states, the one walk of
  the space that the checker and the Theorem-1 propagation both read;
* Ω outputs ``p1`` at every process throughout, exactly as in the proof
  ("Ω outputs the same leader process p1 at all processes in every run
  considered in the proof"), so every run in the model is *stable* in the
  sense of Definition 2 and the zero-degradation obligation applies to all
  of them;
* a run is *one-step-obliging* for process ``i`` when ``i``'s round-1 state
  shows ``n - f`` equal values ``v``: such a state is indistinguishable from
  a state in a run where all proposals equal ``v`` and the missing process
  crashed initially, so a one-step protocol must already have decided ``v``
  (Definition 1 applied through indistinguishability).

Processes are numbered 1..4 in this package to match Figure 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError

__all__ = [
    "PIDS",
    "N",
    "F",
    "LEADER",
    "RunSpec",
    "state1",
    "state2",
    "one_step_value",
    "hear_options",
    "run_space",
    "format_state1",
]

PIDS: tuple[int, ...] = (1, 2, 3, 4)
N = 4
F = 1
LEADER = 1  # Ω outputs p1 everywhere, as in the proof.

State1 = tuple  # 4 entries: initial value heard, or None
State2 = tuple  # 4 entries: State1 of the process heard, or None


@dataclass(frozen=True)
class RunSpec:
    """A two-round run: initial values plus per-round hear-sets.

    ``hears1[i]`` / ``hears2[i]`` are the (sorted) 3-tuples of pids process
    ``i + 1`` hears in rounds 1 and 2.  Every hear-set contains the process
    itself (its own message is always available).
    """

    initial: tuple[int, int, int, int]
    hears1: tuple[tuple[int, ...], ...]
    hears2: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.initial) != N or len(self.hears1) != N or len(self.hears2) != N:
            raise ConfigurationError("RunSpec needs exactly 4 processes")
        for i, pid in enumerate(PIDS):
            for hears in (self.hears1[i], self.hears2[i]):
                if len(hears) != N - F:
                    raise ConfigurationError(
                        f"p{pid} must hear exactly n-f={N - F} processes, got {hears}"
                    )
                if pid not in hears:
                    raise ConfigurationError(f"p{pid}'s hear-set {hears} must contain itself")
                if any(q not in PIDS for q in hears):
                    raise ConfigurationError(f"unknown pid in hear-set {hears}")

    def describe(self) -> str:
        """``init=0111 p1<123|124>;…``: the initial values, then each
        process's round-1 and round-2 hear-sets."""
        initial = "".join(str(v) for v in self.initial)
        hears = ";".join(
            f"p{pid}<{''.join(map(str, self.hears1[pid - 1]))}|"
            f"{''.join(map(str, self.hears2[pid - 1]))}>"
            for pid in PIDS
        )
        return f"init={initial} {hears}"


def _heard(entries: tuple, hears: tuple[int, ...]) -> tuple:
    """``entries`` (one per pid) with the entries of unheard processes blanked."""
    return tuple(entries[q - 1] if q in hears else None for q in PIDS)


def state1(run: RunSpec, pid: int) -> State1:
    """Process ``pid``'s state after round 1: the initial values it heard."""
    return _heard(run.initial, run.hears1[pid - 1])


def state2(run: RunSpec, pid: int) -> State2:
    """Process ``pid``'s state after round 2: the round-1 states it heard.

    Because each hear-set contains the process itself, ``state2`` determines
    ``state1`` (its own entry), so any decision taken *by the end of round 2*
    is a function of ``state2`` alone — the similarity notion of the proof.
    """
    return _heard(tuple(state1(run, q) for q in PIDS), run.hears2[pid - 1])


def one_step_value(s1: State1) -> int | None:
    """The value a one-step protocol is obliged to decide in state ``s1``.

    If the ``n - f`` received values are all equal to ``v``, the state is
    indistinguishable from one arising in a run where every process proposed
    ``v`` and the missing process crashed initially; Definition 1 then forces
    an immediate decision, and Validity forces the value ``v``.
    Returns None when the state carries no obligation.
    """
    values = set(s1)
    values.discard(None)
    if len(values) == 1:
        return values.pop()
    return None


def hear_options(pid: int) -> list[tuple[int, ...]]:
    """All hear-sets available to the adversary for ``pid``: the 3-subsets
    of {1..4} containing ``pid``."""
    return [
        tuple(sorted(combo))
        for combo in itertools.combinations(PIDS, N - F)
        if pid in combo
    ]


def run_space() -> Iterator[tuple[tuple, tuple, tuple, tuple, tuple]]:
    """Every two-round run as ``(initial, hears1, hears2, states1, states2)``.

    Each component holds one entry per pid.  Runs come in lexicographic
    order of initial values, then round-1 hear-sets, then round-2
    hear-sets.  Round-1 states are computed once per (initial values,
    round-1 hear-sets), and each process's round-2 state once per
    hear-set it may take, so runs share their state objects.  No
    :class:`RunSpec` is built: a caller builds one for a run it returns or
    prints.
    """
    options = [hear_options(pid) for pid in PIDS]
    for initial in itertools.product((0, 1), repeat=N):
        for hears1 in itertools.product(*options):
            states1 = tuple(_heard(initial, hears) for hears in hears1)
            round2 = [
                [(hears, _heard(states1, hears)) for hears in own] for own in options
            ]
            for choice in itertools.product(*round2):
                hears2, states2 = zip(*choice)
                yield initial, hears1, hears2, states1, states2


def format_state1(s1: State1) -> str:
    """Figure-1 rendering of a round-1 state, e.g. ``011-``."""
    return "".join("-" if v is None else str(v) for v in s1)

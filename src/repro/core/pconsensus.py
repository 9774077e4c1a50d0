"""P-Consensus (Algorithm 2 of the paper): ◇P-based, one-step *and* zero-degrading.

P-Consensus escapes the Theorem-1 impossibility by using a failure detector
strictly stronger than Ω.  The idea (originally Lamport's, Fast Paxos):
the impossibility needs processes to act on *different* quorums of first-round
messages; ◇P lets every undecided process compute the **same** quorum — the
first ``n - f`` non-suspected processes — wait for a PROP from each of its
non-suspected members, and then apply the same deterministic choice functions
to the same message set.  In a stable run all undecided processes therefore
enter round ``r + 1`` with equal estimates and decide — two steps total, i.e.
zero-degradation — while ``n - f`` equal first-round values always decide in
one step regardless of the detector output (one-step).

Round structure (per round ``r``):

1. broadcast ``PROP(r, est)``; wait for ``n - f`` round-``r`` PROPs (line 2);
2. **decide** if ``n - f`` of them carry the same value (line 3-4);
3. otherwise fix the quorum ``Q`` = first ``n - f`` non-suspected processes
   (line 5) and additionally wait for a PROP from every member of
   ``Q \\ suspected`` (line 6 — re-evaluated whenever ◇P changes);
4. choose the next estimate (lines 7-14):
   * ``Q`` complete (all ``n - f`` PROPs from ``Q`` in hand): the value with
     ``≥ n - 2f`` occurrences in the quorum list, else the estimate of the
     lowest-index member of ``Q`` (the deterministic "leader" pick);
   * ``Q`` incomplete: the strict-majority value among *all* received
     round-``r`` PROPs, if any (the agreement safety net).

Requires ``f < n/3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.interfaces import ConsensusModule
from repro.core.values import majority_value, value_with_count_at_least
from repro.errors import ConfigurationError
from repro.fd.base import SuspectView
from repro.sim.process import Environment

__all__ = ["PProp", "PConsensus"]


@dataclass(frozen=True, slots=True)
class PProp:
    """Round proposal: ``(r_i, est_i)`` of algorithm 2."""

    round: int
    est: Any


class PConsensus(ConsensusModule):
    """One instance of P-Consensus at one process.

    Parameters
    ----------
    env:
        (Scoped) environment.
    suspects:
        This process's ◇P view; the module subscribes to changes so the
        line-6 wait unblocks when a quorum member gets suspected.
    f:
        Resilience bound; must satisfy ``f < n/3``.
    on_decide:
        Upcall invoked exactly once with the decision value.
    """

    inert_once_decided = True

    def __init__(
        self,
        env: Environment,
        suspects: SuspectView,
        f: int | None = None,
        on_decide: Callable[[Any], None] | None = None,
    ) -> None:
        super().__init__(env, on_decide)
        n = env.n
        self._n = n  # group size is fixed; skip the per-message property
        self.f = (n - 1) // 3 if f is None else f
        if not 0 <= self.f or not 3 * self.f < n:
            raise ConfigurationError(
                f"P-Consensus requires f < n/3 (got n={n}, f={self.f})"
            )
        self.suspects = suspects
        self.round = 0  # 0 = not started; rounds are 1-based
        self.est: Any = None
        self._props: dict[int, dict[int, PProp]] = {}
        # None while in the first wait (line 2); the fixed quorum afterwards.
        self._quorum: tuple[int, ...] | None = None
        suspects.subscribe(self._on_suspects_change)

    def retire(self) -> None:
        self.suspects.unsubscribe(self._on_suspects_change)

    # --------------------------------------------------------------- protocol

    def _start(self, value: Any) -> None:
        self.est = value
        self._begin_round(1)

    def _begin_round(self, r: int) -> None:
        self.round = r
        self._quorum = None
        self._emit_round_start(r)
        self.env.broadcast(PProp(r, self.est))
        self._advance()

    def _on_protocol_message(self, src: int, msg: Any) -> None:
        if type(msg) is not PProp:  # exact type: PProp is a final message shape
            return
        self._props.setdefault(msg.round, {})[src] = msg
        if not self.decided and msg.round == self.round:
            self._advance()

    def _on_suspects_change(self) -> None:
        # Line 6 re-evaluation: a newly suspected quorum member no longer
        # blocks the wait.
        if self._proposed and not self.decided and self._quorum is not None:
            self._advance()

    # ------------------------------------------------------------ round logic

    def _advance(self) -> None:
        r = self.round
        received = self._props.get(r, {})
        n, f = self._n, self.f

        if self._quorum is None:
            if len(received) < n - f:
                return  # line 2
            # Line 3-4: n - f equal values decide immediately — no failure
            # detector involved, which is what makes P-Consensus one-step.
            candidate = value_with_count_at_least(
                (m.est for m in received.values()), n - f
            )
            if candidate is not None:
                self._decide(candidate, steps=r)
                return
            # Line 5: fix Q as the first n - f processes not suspected *now*.
            trusted = [p for p in sorted(self.env.peers) if p not in self.suspects.suspected()]
            self._quorum = tuple(trusted[: n - f])

        # Line 6: wait for a PROP from every not-currently-suspected member of Q.
        pending = [
            p
            for p in self._quorum
            if p not in received and p not in self.suspects.suspected()
        ]
        if pending:
            return

        # Lines 7-14: choose the next estimate.
        qlist = [received[p].est for p in self._quorum if p in received]
        if len(qlist) == n - f:
            candidate = value_with_count_at_least(qlist, n - 2 * f)
            if candidate is not None:
                self.est = candidate  # line 10
            else:
                self.est = received[min(self._quorum)].est  # line 12
        else:
            vlist = [m.est for m in received.values()]
            candidate = majority_value(vlist)
            if candidate is not None:
                self.est = candidate  # line 14 (agreement safety net)

        self._begin_round(r + 1)

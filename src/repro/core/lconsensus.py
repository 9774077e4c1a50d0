"""L-Consensus (Algorithm 1 of the paper): Ω-based, zero-degrading consensus.

L-Consensus circumvents the Theorem-1 impossibility by *conditioning one-step
decision on the behaviour of the failure detector*: it decides in a single
communication step when all proposals are equal **and** the run is stable,
and in two steps in every stable run (zero-degradation).  The key mechanism
is that processes are constrained to decide the value backed by the majority
leader:

* **decide** (line 4):  ``n - f`` received PROPs carry the same value ``v``
  *and* name this process's leader ``ld`` in their leader field, and a PROP
  from ``ld`` itself carries ``v``;
* **adopt leader value** (line 7): a majority of PROPs name ``ld`` and ``ld``'s
  own PROP carries ``v``  →  ``est ← v``;
* **adopt majority value** (line 9): some value appears ``n - 2f`` times
  →  ``est ← v`` (safety net for unstable periods — if anyone decided ``v``
  this round, ``v`` necessarily appears ``≥ n - 2f > f`` times, so every
  survivor adopts it).

Requires ``f < n/3``.  Each round is one communication step: broadcast
PROP(r, est, ld), then wait for ``n - f`` round-``r`` PROPs *including one
from ld* — or until Ω stops outputting ``ld`` (the escape hatch that keeps
the protocol live when the leader crashes mid-round).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.interfaces import ConsensusModule
from repro.core.values import value_with_count_at_least
from repro.errors import ConfigurationError
from repro.fd.base import OmegaView
from repro.sim.process import Environment

__all__ = ["LProp", "LConsensus"]


@dataclass(frozen=True, slots=True)
class LProp:
    """Round proposal: ``(r_i, est_i, ld)`` of algorithm 1."""

    round: int
    est: Any
    ld: int | None


class LConsensus(ConsensusModule):
    """One instance of L-Consensus at one process.

    Parameters
    ----------
    env:
        (Scoped) environment.
    omega:
        This process's Ω view; the module subscribes to output changes so the
        line-3 wait re-evaluates as soon as the leader output moves.
    f:
        Resilience bound; must satisfy ``f < n/3``.
    on_decide:
        Upcall invoked exactly once with the decision value.
    """

    inert_once_decided = True

    def __init__(
        self,
        env: Environment,
        omega: OmegaView,
        f: int | None = None,
        on_decide: Callable[[Any], None] | None = None,
    ) -> None:
        super().__init__(env, on_decide)
        n = env.n
        self._n = n  # group size is fixed; skip the per-round property
        self.f = (n - 1) // 3 if f is None else f
        if not 0 <= self.f or not 3 * self.f < n:
            raise ConfigurationError(
                f"L-Consensus requires f < n/3 (got n={n}, f={self.f})"
            )
        self.omega = omega
        self.round = 0  # 0 = not started; rounds are 1-based
        self.est: Any = None
        self._round_leader: int | None = None
        # All PROPs ever received, keyed by round then sender (one PROP per
        # sender per round by construction; FIFO channels preserve that).
        self._props: dict[int, dict[int, LProp]] = {}
        omega.subscribe(self._on_omega_change)

    def retire(self) -> None:
        self.omega.unsubscribe(self._on_omega_change)

    # --------------------------------------------------------------- protocol

    def _start(self, value: Any) -> None:
        self.est = value
        self._begin_round(1)

    def _begin_round(self, r: int) -> None:
        self.round = r
        self._round_leader = self.omega.leader()
        self._emit_round_start(r)
        self.env.broadcast(LProp(r, self.est, self._round_leader))
        # Messages for this round may have been buffered before we got here.
        self._try_complete_round()

    def _on_protocol_message(self, src: int, msg: Any) -> None:
        if not isinstance(msg, LProp):
            return
        self._props.setdefault(msg.round, {})[src] = msg
        if not self.decided and msg.round == self.round:
            self._try_complete_round()

    def _on_omega_change(self) -> None:
        # Line 3's second disjunct: the wait for the leader's PROP is
        # abandoned the moment Ω stops outputting that leader.
        if self._proposed and not self.decided and self.round > 0:
            self._try_complete_round()

    # ------------------------------------------------------------ round logic

    def _try_complete_round(self) -> None:
        r = self.round
        received = self._props.get(r, {})
        n, f = self._n, self.f
        if len(received) < n - f:
            return  # line 2: need n - f round-r PROPs
        ld = self._round_leader
        leader_prop = received.get(ld) if ld is not None else None
        if ld is not None and leader_prop is None and self.omega.leader() == ld:
            return  # line 3: keep waiting for the leader's PROP

        # Line 4: n - f PROPs carrying (v, ld) plus v from the leader itself.
        if leader_prop is not None:
            backed = [m.est for m in received.values() if m.ld == ld]
            candidate = value_with_count_at_least(backed, n - f)
            if candidate is not None and leader_prop.est == candidate:
                self._decide(candidate, steps=r)
                return

        # Line 7: majority of PROPs name ld, and ld's PROP carries v.
        named_ld = sum(1 for m in received.values() if m.ld == ld)
        if leader_prop is not None and 2 * named_ld > n:
            self.est = leader_prop.est
        else:
            # Line 9: adopt a value that appears at least n - 2f times.
            candidate = value_with_count_at_least(
                (m.est for m in received.values()), n - 2 * f
            )
            if candidate is not None:
                self.est = candidate

        self._begin_round(r + 1)

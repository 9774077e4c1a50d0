"""WABCast — Pedone & Schiper's WAB-based atomic broadcast (baseline).

The paper's second experimental baseline (Figure 2) is the atomic broadcast
of "Solving agreement problems with weak ordering oracles" [19]: atomic
broadcast built *directly* on the spontaneous-order oracle, with no failure
detector at all.  Each abcast round ``k`` runs inner voting rounds ``r``:

1. w-broadcast ``(k, r, est)`` — for ``r = 1`` the estimate is the set of
   pending messages; the WAB oracle's spontaneous order makes the *first*
   w-delivered value the shared candidate;
2. broadcast ``CHECK(k, r, candidate)`` and wait for ``n - f`` checks:
   * ``n - f`` equal values → **a-deliver** that batch (2δ total — one WAB
     step plus one check step);
   * ``≥ n - 2f`` equal values ``v`` → adopt ``v`` (someone may have
     delivered ``v``; since ``n - 2f > f`` the adoption is unambiguous);
   * otherwise adopt the first w-delivered value of the next inner round;
   then start inner round ``r + 1``.

Termination rests *only* on spontaneous order: while collisions persist the
inner rounds keep repeating — this is the ``∞`` entry in Table 1 and the
sharp degradation above ~100 msg/s in Figure 2.  Deciders broadcast a
``WabDecision`` so processes stuck in inner rounds catch up (the original
protocol's decision dissemination).

Requires ``f < n/3``; tolerates any asynchrony but no crash of more than
``f`` processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.abcast_base import AbcastModule, AppMessage
from repro.core.values import value_with_count_at_least
from repro.errors import ConfigurationError
from repro.oracles.wab import WabOracle
from repro.sim.process import Environment

__all__ = ["WabCheck", "WabDecision", "WabCast"]


@dataclass(frozen=True, slots=True)
class WabCheck:
    """Inner-round verification vote."""

    round: int  # abcast round k
    inner: int  # inner voting round r
    value: frozenset


@dataclass(frozen=True, slots=True)
class WabDecision:
    """Decision dissemination for laggards."""

    round: int
    value: frozenset


_IDLE = "idle"
_AWAIT_FIRST = "await_first"
_AWAIT_CHECKS = "await_checks"


class WabCast(AbcastModule):
    """One WABCast endpoint."""

    def __init__(
        self,
        env: Environment,
        f: int | None = None,
        on_deliver: Callable[[AppMessage], None] | None = None,
        wab_repeats: int = 0,
    ) -> None:
        super().__init__(env, on_deliver)
        n = env.n
        self.f = (n - 1) // 3 if f is None else f
        if not 0 <= self.f or not 3 * self.f < n:
            raise ConfigurationError(f"WABCast requires f < n/3 (got n={n}, f={self.f})")
        self.wab = WabOracle(env, self._w_deliver, repeats=wab_repeats)
        self.round = 1
        self.inner = 1
        self.state = _IDLE
        self.estimate: set[AppMessage] = set()
        # Keyed by rounds at or above ``self.round`` only: a delivered
        # round's entries go when it is delivered, and its late traffic
        # stores nothing.
        self._first: dict[tuple[int, int], frozenset] = {}
        self._checks: dict[tuple[int, int], dict[int, frozenset]] = {}
        self._decisions: dict[int, frozenset] = {}
        #: Delivered rounds a late ``WabDecision`` has arrived for (see
        #: :meth:`_late_decision`).
        self._late_decided: set[int] = set()
        self.inner_rounds_run = 0  # metric: > rounds_completed ⇒ collisions hit
        self.rounds_completed = 0

    # -------------------------------------------------------------- plumbing

    def on_message(self, src: int, msg: Any) -> None:
        if isinstance(msg, WabCheck):
            if msg.round < self.round:
                return
            self._checks.setdefault((msg.round, msg.inner), {})[src] = msg.value
            if (
                self.state == _AWAIT_CHECKS
                and msg.round == self.round
                and msg.inner == self.inner
            ):
                self._tally()
        elif isinstance(msg, WabDecision):
            if msg.round < self.round:
                self._late_decision(msg.round)
            elif msg.round not in self._decisions:
                self._decisions[msg.round] = msg.value
                self._drain()
        else:
            self.wab.on_message(src, msg)

    # -------------------------------------------------------- the round loop

    def _submit(self, message: AppMessage) -> None:
        self.estimate.add(message)
        if self.state == _IDLE:
            self._start_inner(frozenset(self.estimate))

    def _late_decision(self, k: int) -> None:
        """A ``WabDecision`` for round ``k``, already delivered here.

        Known defect, kept because fixing it changes simulated output
        (docs/PROTOCOLS.md): the first late decision of a round runs
        :meth:`_drain`, which with a non-empty estimate restarts the
        *current* inner round — a second w-broadcast and check in one
        (round, inner) instance.  A repeat does nothing.  Only the round
        number is kept, never the batch.
        """
        if k not in self._late_decided:
            self._late_decided.add(k)
            self._drain()

    def _w_deliver(self, instance: tuple[int, int], payload: frozenset, position: int) -> None:
        if position == 0:
            if instance[0] < self.round:
                return  # a round already delivered: nothing waits for it
            self._first[instance] = payload
            if instance == (self.round, self.inner):
                if self.state == _AWAIT_FIRST:
                    self._vote(payload)
                elif self.state == _IDLE:
                    # Another process started this abcast round; join it.
                    self._start_inner(frozenset(self.estimate))
        else:
            fresh = {m for m in payload if m.msg_id not in self._delivered_ids}
            self.estimate |= fresh
            if fresh and self.state == _IDLE:
                self._start_inner(frozenset(self.estimate))

    def _start_inner(self, proposal: frozenset) -> None:
        """Stage 1 of an inner round: w-broadcast and await the first value.

        As in C-Abcast, an empty proposal is not broadcast when the round's
        first message is already in (the idle wake-up path) — this keeps the
        no-collision cost at Table 1's ``n² + n`` messages.
        """
        key = (self.round, self.inner)
        self.state = _AWAIT_FIRST
        self.inner_rounds_run += 1
        if self.tracer is not None:
            self.tracer.emit_round_start(
                self.env.now(), self.env.pid, self.inner, self.round, "wab"
            )
        if proposal or key not in self._first:
            self.wab.w_broadcast(key, proposal)
        if self.round in self._decisions:
            self._drain()
        elif key in self._first:
            self._vote(self._first[key])

    def _vote(self, candidate: frozenset) -> None:
        """Stage 2: verify the spontaneous order with an all-to-all check."""
        self.state = _AWAIT_CHECKS
        self.env.broadcast(WabCheck(self.round, self.inner, candidate))
        self._tally()

    def _tally(self) -> None:
        key = (self.round, self.inner)
        received = self._checks.get(key, {})
        n, f = self.env.n, self.f
        if len(received) < n - f:
            return
        unanimous = value_with_count_at_least(received.values(), n - f)
        if unanimous is not None:
            if self.round not in self._decisions:
                self._decisions[self.round] = unanimous
                self.env.broadcast(WabDecision(self.round, unanimous))
            self._drain()
            return
        adopted = value_with_count_at_least(received.values(), n - 2 * f)
        self.inner += 1
        next_key = (self.round, self.inner)
        if adopted is not None:
            proposal = adopted
        else:
            # No safety constraint: follow the oracle if it spoke already.
            proposal = self._first.get(next_key, frozenset(self.estimate))
        self._start_inner(proposal)

    def _drain(self) -> None:
        start = self.round
        while self.round in self._decisions:
            batch = self._decisions.pop(self.round)
            self._deliver_batch(batch)
            self.estimate = {
                m for m in self.estimate if m.msg_id not in self._delivered_ids
            }
            self.round += 1
            self.inner = 1
            self.rounds_completed += 1
        if self.round != start:
            k = self.round
            self._first = {key: v for key, v in self._first.items() if key[0] >= k}
            self._checks = {key: v for key, v in self._checks.items() if key[0] >= k}
        if self.estimate:
            self._start_inner(frozenset(self.estimate))
        else:
            self.state = _IDLE

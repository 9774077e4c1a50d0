"""Consensus-sequence atomic broadcast on raw message sets (CT / MR style).

The reduction the paper's C-Abcast refines (sections 2 and 7): a-broadcast
disseminates the message to everyone; processes repeatedly run consensus on
their sets of undelivered messages and a-deliver each decision in a
deterministic order — Chandra & Toueg's reduction, with the one-step
optimisation this becomes Mostefaoui & Raynal's low-cost atomic broadcast
[17].

The crucial difference from C-Abcast is the *absence* of the WAB oracle:
each process proposes its **own** pending buffer.  With a single
uncontended sender the dissemination rides the same FIFO links as the
proposals, buffers coincide, and a one-step module still decides in one
step (the "two message delays in the best case" of [17]).  Under
*concurrent* senders, buffers practically never match ("it is very
unlikely that all buffers have the same length when their content is
proposed" — section 2) and the protocol works in the slower mode, which is
precisely the weakness the WAB oracle fixes.  The ``ct_vs_cabcast``
ablation bench quantifies that gap with the same L-Consensus module under
both reductions.

Any :class:`~repro.core.interfaces.ConsensusModule` factory plugs in, like
in C-Abcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.abcast_base import AbcastModule, AppMessage, ConsensusInstances
from repro.core.interfaces import ConsensusModule
from repro.sim.process import Environment, Scoped

__all__ = ["Disseminate", "CtAbcast"]


@dataclass(frozen=True)
class Disseminate:
    """Reliable-broadcast carrier for one a-broadcast message."""

    message: AppMessage


class CtAbcast(AbcastModule):
    """Consensus-sequence atomic broadcast without an ordering oracle."""

    def __init__(
        self,
        env: Environment,
        consensus_factory: Callable[[Environment], ConsensusModule],
        on_deliver: Callable[[AppMessage], None] | None = None,
    ) -> None:
        super().__init__(env, on_deliver)
        self.round = 1
        self.estimate: set[AppMessage] = set()
        self._decisions: dict[int, frozenset] = {}
        self._instances = ConsensusInstances(env, consensus_factory, self._decided)
        #: ``{(via, steps): rounds}`` over every round decided at this process.
        self.decision_tally = self._instances.tally
        #: The last round this process proposed in (rounds only go up).
        self._proposed_round = 0
        self.rounds_completed = 0

    # -------------------------------------------------------------- plumbing

    def on_message(self, src: int, msg: Any) -> None:
        if isinstance(msg, Disseminate):
            if msg.message.msg_id not in self._delivered_ids:
                self.estimate.add(msg.message)
                self._maybe_propose()
        elif isinstance(msg, Scoped) and msg.scope and msg.scope[0] == "cons":
            k = msg.scope[1]
            self._instances[k].on_message(src, msg.inner)
            # A foreign proposal for our current round obliges us to join it
            # even with an empty estimate, so the instance can gather n - f.
            if k == self.round:
                self._maybe_propose(force=True)

    def enable_obs(self, tracer) -> None:
        super().enable_obs(tracer)
        self._instances.enable_obs(tracer)

    # -------------------------------------------------------- the round loop

    def _submit(self, message: AppMessage) -> None:
        self.estimate.add(message)
        for dst in self.env.peers:
            if dst != self.env.pid:
                self.env.send(dst, Disseminate(message))
        self._maybe_propose()

    def _maybe_propose(self, force: bool = False) -> None:
        k = self.round
        if k == self._proposed_round or k in self._decisions:
            return
        if not self.estimate and not force:
            return
        self._proposed_round = k
        instance = self._instances[k]
        if not instance.proposed and not instance.decided:
            instance.propose(frozenset(self.estimate))

    def _decided(self, k: int, value: frozenset) -> None:
        self._decisions[k] = value
        self._drain()

    def _drain(self) -> None:
        while self.round in self._decisions:
            batch = self._decisions.pop(self.round)
            self._deliver_batch(batch)
            self.estimate = {
                m for m in self.estimate if m.msg_id not in self._delivered_ids
            }
            self.round += 1
            self.rounds_completed += 1
        # If the new round already has foreign traffic, join it even with an
        # empty estimate (same obligation as the force path above).
        self._maybe_propose(force=self.round in self._instances)

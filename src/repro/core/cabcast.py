"""C-Abcast (Algorithm 3 of the paper): consensus-based atomic broadcast.

C-Abcast reduces atomic broadcast to a sequence of consensus instances, like
Chandra-Toueg, but feeds the consensus module proposals obtained from a WAB
ordering oracle so that — absent collisions — **all processes propose the
same value** and a one-step consensus module decides in a single
communication step:

* no collisions: 1δ (WAB) + 1δ (one-step consensus)          = **2δ**
* collisions, stable run: 1δ (WAB) + 2δ (zero-degradation)   = **3δ**

Round ``k`` at process ``i`` (lines 5-15): w-broadcast ``estimate_i`` in WAB
instance ``k``; wait for the *first* w-delivered message of instance ``k``;
propose its content to consensus instance ``k``; a-deliver the decided batch
(minus what is already delivered) in a deterministic order; then either start
round ``k+1`` immediately, or — when the estimate is empty — sit idle until
either a local a-broadcast or the first w-delivery of instance ``k+1`` wakes
the process.  Every non-first w-delivery of any instance merges into the
local estimate (lines 16-17), which is what guarantees Validity.

Deviation note: the literal pseudo-code w-broadcasts an initial empty round
before reaching the line-14 idle wait; this implementation starts idle at
``k = 1``, which only removes spurious empty instances and shifts no
behaviour (the idle wake conditions are exactly line 15's).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.abcast_base import AbcastModule, AppMessage, ConsensusInstances
from repro.core.interfaces import ConsensusModule
from repro.oracles.wab import WabOracle
from repro.sim.process import Environment, Scoped

__all__ = ["CAbcast"]

_IDLE = "idle"
_AWAIT_FIRST = "await_first"
_AWAIT_DECISION = "await_decision"


class CAbcast(AbcastModule):
    """C-Abcast with a pluggable consensus module.

    Parameters
    ----------
    env:
        (Scoped) environment of the hosting process.
    consensus_factory:
        ``factory(scoped_env) -> ConsensusModule``; one instance is created
        per round, exactly the "exchangeable consensus module" of the
        paper's evaluation.
    on_deliver:
        Upcall invoked for every a-delivered message, in delivery order.
    wab_repeats:
        Retransmissions for the WAB oracle (0 = paper-faithful plain UDP).
    """

    def __init__(
        self,
        env: Environment,
        consensus_factory: Callable[[Environment], ConsensusModule],
        on_deliver: Callable[[AppMessage], None] | None = None,
        wab_repeats: int = 0,
    ) -> None:
        super().__init__(env, on_deliver)
        self.wab = WabOracle(env, self._w_deliver, repeats=wab_repeats)
        self.round = 1
        self.state = _IDLE
        self.estimate: set[AppMessage] = set()
        self._first_payload: dict[int, frozenset[AppMessage]] = {}
        self._decisions: dict[int, frozenset[AppMessage]] = {}
        # One live consensus module per round in flight.
        self._instances = ConsensusInstances(env, consensus_factory, self._decided)
        #: ``{(via, steps): rounds}`` over every round decided at this process
        #: (``("round", 1)`` is the one-step path).
        self.decision_tally = self._instances.tally
        self.rounds_completed = 0

    # -------------------------------------------------------------- plumbing

    def on_message(self, src: int, msg: Any) -> None:
        if type(msg) is Scoped:
            scope = msg.scope
            if scope and scope[0] == "cons":
                self._instances[scope[1]].on_message(src, msg.inner)
                return
        self.wab.on_message(src, msg)

    def enable_obs(self, tracer) -> None:
        super().enable_obs(tracer)
        self._instances.enable_obs(tracer)

    # -------------------------------------------------------- the round loop

    def _submit(self, message: AppMessage) -> None:
        self.estimate.add(message)
        if self.state == _IDLE:
            self._enter_round()

    def _w_deliver(self, instance: int, payload: frozenset, position: int) -> None:
        if position == 0:
            if instance < self.round:
                return  # a round already delivered: nothing waits for it
            self._first_payload[instance] = payload
            if instance != self.round:
                return  # future round: recorded for line 7's retroactive wait
            if self.state == _AWAIT_FIRST:
                self._propose()
            elif self.state == _IDLE:
                self._enter_round()  # line 15, first wake condition
        else:
            # Lines 16-17: fold every late w-delivery into the estimate.
            fresh = {m for m in payload if m.msg_id not in self._delivered_ids}
            self.estimate |= fresh
            if fresh and self.state == _IDLE:
                self._enter_round()  # line 15, second wake condition

    def _enter_round(self) -> None:
        """Line 6: w-broadcast the estimate and wait for the first delivery.

        An empty estimate is not broadcast when the round's first message has
        already been w-delivered (the wake-up path of line 15): the broadcast
        would carry nothing and the line-7 wait is already satisfied.  This
        keeps the no-collision cost at the paper's ``n² + n`` messages.
        """
        k = self.round
        self.state = _AWAIT_FIRST
        if self.estimate or k not in self._first_payload:
            self.wab.w_broadcast(k, frozenset(self.estimate))
        if k in self._decisions:
            self._drain()
        elif k in self._first_payload:
            self._propose()

    def _propose(self) -> None:
        """Line 8: propose the first w-delivered value of this round."""
        k = self.round
        self.state = _AWAIT_DECISION
        instance = self._instances[k]
        if not instance.proposed and not instance.decided:
            instance.propose(self._first_payload[k])

    def _decided(self, k: int, value: frozenset) -> None:
        self._decisions[k] = value
        if k == self.round:
            self._drain()

    def _drain(self) -> None:
        """Lines 9-15: deliver every consecutively decided round."""
        while self.round in self._decisions:
            batch = self._decisions.pop(self.round)
            self._first_payload.pop(self.round, None)
            self._deliver_batch(batch)
            self.estimate = {
                m for m in self.estimate if m.msg_id not in self._delivered_ids
            }
            self.round += 1
            self.rounds_completed += 1
        k = self.round
        if self.estimate or k in self._first_payload:
            self._enter_round()
        else:
            self.state = _IDLE

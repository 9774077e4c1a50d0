"""Shared machinery for atomic-broadcast protocol modules.

All three atomic broadcast implementations in this repository — the paper's
C-Abcast, the WABCast baseline and the Multi-Paxos baseline — expose the same
two-primitive interface from section 3.3 (``a_broadcast`` / an ``on_deliver``
upcall), so the workload harness and the safety checkers treat them
uniformly.

Messages are :class:`AppMessage` records identified by ``(origin, seq)``;
batches decided by consensus are delivered "atomically in some deterministic
order" (algorithm 3, line 10) — here: sorted by ``(origin, seq)``, a total
order available identically at every process.

The two consensus-sequence reductions (C-Abcast and the CT/MR-style
``CtAbcast``) keep their per-round consensus modules in one
:class:`ConsensusInstances` map, which is also where a decided instance ends.
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Iterable

from repro.core.interfaces import ConsensusModule
from repro.sim.process import Environment, ScopedEnvironment

__all__ = [
    "AppMessage",
    "AbcastModule",
    "ConsensusInstances",
    "RETIRED",
    "deterministic_batch_order",
]


@dataclass(frozen=True, slots=True)
class AppMessage:
    """An application payload wrapped for atomic broadcast.

    ``origin`` and ``seq`` identify the message uniquely; ``sent_at`` is the
    a-broadcast timestamp used by the latency metrics (it rides along in the
    identity, which is harmless since the tuple is unique anyway).

    ``msg_id`` is ``(origin, seq)``, minted once at construction, so every
    duplicate filter, pending table and trace record of the message shares
    one tuple.  It is derived, not part of the message: it takes no
    constructor argument and stays out of ``repr`` (hence the wire size),
    ``==``, ``hash`` and :func:`~repro.core.values.canonical_key`.
    """

    origin: int
    seq: int
    payload: Any
    sent_at: float
    msg_id: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "msg_id", (self.origin, self.seq))


def deterministic_batch_order(batch: Iterable[AppMessage]) -> list[AppMessage]:
    """The paper's "deterministic order" for intra-batch delivery."""
    return sorted(batch, key=attrgetter("msg_id"))


class AbcastModule(abc.ABC):
    """Base class for atomic broadcast modules hosted inside a process."""

    #: Detailed observability; ``None`` keeps the module silent.  Wrapper
    #: protocols (C-Abcast spawning consensus instances) override
    #: :meth:`enable_obs` to propagate the tracer to sub-modules.
    tracer = None

    def enable_obs(self, tracer) -> None:
        self.tracer = tracer

    def __init__(
        self,
        env: Environment,
        on_deliver: Callable[[AppMessage], None] | None = None,
    ) -> None:
        self.env = env
        self._on_deliver = on_deliver
        self._next_seq = 0
        #: Delivery sequence as ids (what the total-order checker consumes).
        #: The messages themselves are not kept: nothing reads them back.
        self.delivered_ids: list[tuple[int, int]] = []
        self._delivered_ids: set[tuple[int, int]] = set()

    # ------------------------------------------------------------- public API

    def set_on_deliver(self, fn: Callable[[AppMessage], None]) -> None:
        self._on_deliver = fn

    def a_broadcast(self, payload: Any) -> AppMessage:
        """Atomically broadcast ``payload``; returns the wrapped message."""
        self._next_seq += 1
        message = AppMessage(self.env.pid, self._next_seq, payload, self.env.now())
        self._submit(message)
        return message

    # ------------------------------------------------------ subclass contract

    @abc.abstractmethod
    def _submit(self, message: AppMessage) -> None:
        """Inject a locally a-broadcast message into the protocol."""

    @abc.abstractmethod
    def on_message(self, src: int, msg: Any) -> None:
        """Protocol message dispatch (called by the hosting process)."""

    def on_timer(self, name: Any) -> None:
        """Most abcast modules are timer-free; Multi-Paxos overrides."""

    def on_start(self) -> None:
        """Called once when the hosting node boots."""

    # --------------------------------------------------------------- delivery

    def _deliver_batch(self, batch: Iterable[AppMessage]) -> list[AppMessage]:
        """Deliver every not-yet-delivered message of ``batch`` in order."""
        fresh = []
        for message in deterministic_batch_order(batch):
            msg_id = message.msg_id
            if msg_id in self._delivered_ids:
                continue
            self._delivered_ids.add(msg_id)
            self.delivered_ids.append(msg_id)
            fresh.append(message)
            if self._on_deliver is not None:
                self._on_deliver(message)
        return fresh


class _Retired:
    """What a round's map entry becomes once its instance is retired.

    It reads as proposed and decided, so a reduction never proposes to it,
    and it drops whatever arrives: the late PROP/DECIDE traffic of an old
    round costs the dict hit it always did and re-creates nothing.
    """

    __slots__ = ()
    proposed = decided = True

    def on_message(self, src: int, msg: Any) -> None:
        pass

    def enable_obs(self, tracer, instance_label: Any = None) -> None:
        pass


#: The one stand-in shared by every retired round of every process.
RETIRED = _Retired()


class ConsensusInstances(dict):
    """Round → consensus module, for a reduction to a sequence of consensus.

    ``instances[k]`` is round ``k``'s module, created on first use: by the
    local proposal, or by the first message of a peer that got there sooner.

    Instance lifetime ends at decision.  A module that declares itself
    :attr:`~repro.core.interfaces.ConsensusModule.inert_once_decided` has
    nothing left to do once it has decided, so the decision upcall
    calls its :meth:`~repro.core.interfaces.ConsensusModule.retire` and puts
    :data:`RETIRED` in its place; the module, its scoped environment and its
    PROP table are then garbage.  Rounds number from 1, and the retired
    rounds contiguous from there are deleted behind a floor: below it a
    lookup answers :data:`RETIRED` without storing it, so late traffic still
    re-creates nothing and the map holds the rounds in flight only.  Other
    modules (an acceptor must keep answering) stay, and hold the floor.
    Either way the decision is counted in :attr:`tally` and then handed to
    ``on_decided(k, value)``.

    Parameters
    ----------
    env:
        The reduction's environment; round ``k`` runs under scope
        ``("cons", k)`` of it.
    factory:
        ``factory(scoped_env) -> ConsensusModule``.
    on_decided:
        ``on_decided(k, value)``, the reduction's decision handler.
    """

    def __init__(
        self,
        env: Environment,
        factory: Callable[[Environment], ConsensusModule],
        on_decided: Callable[[int, Any], None],
    ) -> None:
        super().__init__()
        self._env = env
        self._factory = factory
        self._on_decided = on_decided
        self.tracer = None
        #: Every round below this one is retired and gone from the map.
        self._floor = 1
        #: ``{(via, steps): decisions}`` — the part of every instance's
        #: :class:`~repro.core.interfaces.DecisionRecord` that outlives it.
        self.tally: Counter[tuple[str, int]] = Counter()

    def __missing__(self, k: int) -> ConsensusModule:
        if k < self._floor:
            return RETIRED
        instance = self._factory(ScopedEnvironment(self._env, ("cons", k)))
        instance.set_on_decide(partial(self._decided, k))
        if self.tracer is not None:
            instance.enable_obs(self.tracer, instance_label=k)
        self[k] = instance
        return instance

    def enable_obs(self, tracer) -> None:
        self.tracer = tracer
        for k, instance in self.items():
            instance.enable_obs(tracer, instance_label=k)

    def _decided(self, k: int, value: Any) -> None:
        instance = self[k]
        self.tally[instance.decision.via, instance.decision.steps] += 1
        if instance.inert_once_decided:
            instance.retire()
            self[k] = RETIRED
            while self.get(self._floor) is RETIRED:
                del self[self._floor]
                self._floor += 1
        self._on_decided(k, value)

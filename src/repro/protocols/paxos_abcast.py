"""Multi-Paxos atomic broadcast — the paper's primary baseline (Figure 3).

Classic Paxos run as a replicated log, the way the paper benchmarks "Paxos":

* a process a-broadcasts by sending a ``Request`` to the current leader
  (Ω's output) — 1δ;
* the leader assigns the next log instance and phase-2 broadcasts
  ``LogAccept(ballot, instance, batch)`` — 1δ;
* acceptors broadcast ``LogAccepted`` to everyone, so all processes learn a
  chosen instance one step later — 1δ.

Total: **3δ in every stable run**, with ``n² + n + 1`` messages per decision
(1 request + n accepts + n² accepteds) — exactly the Paxos row of Table 1.
The trade against L-/P-Consensus is resilience (``f < n/2``) and a central
coordinator: fewer messages, one more communication step at low load, and a
natural batching advantage at high load (requests arriving while an instance
is in flight share the next instance).

Leader changes run a full phase 1 over the unchosen suffix of the log
(``NewLeaderPrepare``/``NewLeaderPromise``), re-proposing any value that may
have been chosen; gaps are filled with empty batches.  Pending requests are
re-sent to each new leader, and duplicate choices are suppressed at
delivery, so Validity and Integrity survive coordinator crashes.

The log is kept from the group's delivery floor up (a
:class:`~repro.fd.oracle.DeliveryFloor`: the lowest next-to-deliver slot
over all members, a crashed member pinned at its last delivery).  Every
reader of the log reads at or above it: phase 1 from the new leader's own
next slot, catch-up from the recovered incarnation's durable next slot, and
a late ``LogAccepted`` below it is ignored like one for a chosen slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.abcast_base import AbcastModule, AppMessage
from repro.errors import ConfigurationError
from repro.fd.base import OmegaView
from repro.fd.oracle import DeliveryFloor
from repro.sim.process import Environment

__all__ = [
    "Request",
    "LogAccept",
    "LogAccepted",
    "NewLeaderPrepare",
    "NewLeaderPromise",
    "CatchUpRequest",
    "CatchUpReply",
    "MultiPaxosAbcast",
]

#: Stable-storage key prefix of one learner write's delivered ids.
_DELIVERED_PREFIX = "delivered_ids@"


@dataclass(frozen=True)
class Request:
    """Client-to-leader relay of one a-broadcast message."""

    message: AppMessage


@dataclass(frozen=True)
class LogAccept:
    """Phase 2a for one log instance."""

    ballot: int
    instance: int
    batch: frozenset


@dataclass(frozen=True)
class LogAccepted:
    """Phase 2b, broadcast to all learners."""

    ballot: int
    instance: int
    batch: frozenset


@dataclass(frozen=True)
class NewLeaderPrepare:
    """Phase 1a over the whole unchosen log suffix."""

    ballot: int
    from_instance: int


@dataclass(frozen=True)
class NewLeaderPromise:
    """Phase 1b: every acceptance at or above ``from_instance``."""

    ballot: int
    accepted: tuple  # tuple of (instance, ballot, batch)


@dataclass(frozen=True)
class CatchUpRequest:
    """A recovered process asks peers for chosen instances it missed."""

    from_instance: int


@dataclass(frozen=True)
class CatchUpReply:
    """Chosen log suffix: tuple of (instance, batch)."""

    entries: tuple


class MultiPaxosAbcast(AbcastModule):
    """One Multi-Paxos endpoint (proposer when leading, always acceptor+learner)."""

    def __init__(
        self,
        env: Environment,
        omega: OmegaView,
        f: int | None = None,
        on_deliver: Callable[[AppMessage], None] | None = None,
        storage=None,
        floor: DeliveryFloor | None = None,
    ) -> None:
        """``storage`` (a :class:`repro.sim.storage.StableStore`) enables the
        crash-recovery regime: acceptor state and delivery progress are
        persisted, and a recovered incarnation catches up on the chosen log
        it missed via ``CatchUpRequest``/``CatchUpReply``.

        ``floor`` is the group's shared delivery floor (the oracle's
        ``delivery_floor``); without one the module keeps a private floor
        that never passes slot 1, so it keeps its whole log."""
        super().__init__(env, on_deliver)
        n = env.n
        self.f = (n - 1) // 2 if f is None else f
        if not 0 <= self.f or not 2 * self.f < n:
            raise ConfigurationError(f"Multi-Paxos requires f < n/2 (got n={n}, f={self.f})")
        self.quorum = n - self.f
        self.omega = omega
        self.storage = storage
        self._recovering_incarnation = bool(storage) and storage.get("initialized", False)
        # Acceptor state.  Ballot 0 (owned by the lowest pid) is pre-promised:
        # the initial leader starts in steady state, as in the paper's runs.
        self._promised = 0
        self._accepted: dict[int, tuple[int, frozenset]] = {}
        # Leader state.
        self._leading = False
        self._ballot: int | None = 0 if env.pid == min(env.peers) else None
        self._attempt = 0
        self._next_instance = 1
        self._in_flight: set[int] = set()
        self._backlog: list[AppMessage] = []
        self._promises: dict[int, NewLeaderPromise] = {}
        self._phase1_done = False
        # Learner state.  ``_votes`` holds slot -> ballot -> voters for the
        # slots not yet chosen only: a slot's entry goes when it is chosen,
        # and later LogAccepteds for it touch no table.  ``_chosen`` holds
        # the slots from the delivery floor up: catch-up reads it from a
        # recovered peer's next slot, which the floor never passes.
        self._votes: dict[int, dict[int, set[int]]] = {}
        self._chosen: dict[int, frozenset] = {}
        self._next_deliver = 1
        # Log entries below the floor are gone from ``_accepted`` and
        # ``_chosen``; ``_kept_from`` is the first slot not yet swept.
        self._floor = floor if floor is not None else DeliveryFloor(env.peers)
        self._kept_from = 1
        # Requests this process originated that are not yet delivered.
        self._pending: dict[tuple[int, int], AppMessage] = {}
        # How many of ``delivered_ids`` this incarnation has persisted.
        self._persisted = 0
        if self._recovering_incarnation:
            self._restore()
        omega.subscribe(self._on_omega_change)

    # ----------------------------------------------------------- persistence

    def _restore(self) -> None:
        """Reload the durable acceptor/learner state after a recovery."""
        self._promised = self.storage.get("promised", self._promised)
        self._accepted = dict(self.storage.get("accepted", {}))
        self._attempt = self.storage.get("attempt", 0)
        self._next_deliver = self.storage.get("next_deliver", 1)
        for key in self.storage.keys():
            if key.startswith(_DELIVERED_PREFIX):
                self._delivered_ids.update(self.storage.get(key))
        self._next_seq = self.storage.get("next_seq", 0)

    def _persist_acceptor(self) -> None:
        if self.storage is not None:
            self.storage.put("promised", self._promised)
            self.storage.put("accepted", dict(self._accepted))

    def _persist_learner(self) -> None:
        """Write delivery progress: ``next_deliver`` and only the ids
        delivered since the last write, under a key of their own (named by
        ``next_deliver``, which only grows), so a run writes each id once."""
        if self.storage is not None:
            fresh = tuple(self.delivered_ids[self._persisted:])
            self._persisted = len(self.delivered_ids)
            self.storage.put("next_deliver", self._next_deliver)
            self.storage.put(f"{_DELIVERED_PREFIX}{self._next_deliver}", fresh)

    # ------------------------------------------------------------- lifecycle

    def on_start(self) -> None:
        if self.storage is not None:
            self.storage.put("initialized", True)
        if self._recovering_incarnation:
            # Ask the group for the chosen log suffix we slept through.
            for dst in self.env.peers:
                if dst != self.env.pid:
                    self.env.send(dst, CatchUpRequest(self._next_deliver))
        if self.omega.leader() == self.env.pid:
            # A recovered incarnation must not reuse the pre-promised ballot
            # 0 shortcut: intervening ballots may exist, so run phase 1.
            self._assume_leadership(initial=not self._recovering_incarnation)

    # ------------------------------------------------------------ client side

    def _submit(self, message: AppMessage) -> None:
        if self.storage is not None:
            self.storage.put("next_seq", self._next_seq)
        self._pending[message.msg_id] = message
        leader = self.omega.leader()
        if leader == self.env.pid:
            self._leader_enqueue(message)
        elif leader is not None:
            self.env.send(leader, Request(message))

    def _on_omega_change(self) -> None:
        leader = self.omega.leader()
        if leader == self.env.pid:
            self._assume_leadership(initial=False)
            # The new leader's own pending messages re-enter via its backlog
            # (they may have been lost in flight to the crashed coordinator).
            for message in self._pending.values():
                self._leader_enqueue(message)
        else:
            self._leading = False
            if leader is not None:
                # Re-route everything not yet delivered to the new leader.
                for message in self._pending.values():
                    self.env.send(leader, Request(message))

    # ------------------------------------------------------------ leader side

    def _assume_leadership(self, initial: bool) -> None:
        if self._leading:
            return
        self._leading = True
        if initial and self.env.pid == min(self.env.peers):
            # Ballot 0 is pre-promised everywhere: steady state from step one.
            self._phase1_done = True
            return
        self._attempt += 1
        if self.storage is not None:
            self.storage.put("attempt", self._attempt)
        self._ballot = self._attempt * self.env.n + self.env.pid
        self._phase1_done = False
        self._promises = {}
        self.env.broadcast(NewLeaderPrepare(self._ballot, self._next_deliver))

    def _leader_enqueue(self, message: AppMessage) -> None:
        if message.msg_id in self._delivered_ids:
            return
        self._backlog.append(message)
        self._flush_backlog()

    def _flush_backlog(self) -> None:
        """Propose the whole backlog as one instance when the pipe is free.

        One instance in flight at a time: requests arriving meanwhile share
        the next batch, which is what gives Paxos its batching advantage at
        high throughput.
        """
        if not self._leading or not self._phase1_done or self._ballot is None:
            return
        if self._in_flight or not self._backlog:
            return
        batch = frozenset(
            m for m in self._backlog if m.msg_id not in self._delivered_ids
        )
        self._backlog = []
        if not batch:
            return
        instance = self._next_instance
        self._next_instance += 1
        self._in_flight.add(instance)
        self.env.broadcast(LogAccept(self._ballot, instance, batch))

    # ---------------------------------------------------------- message plumbing

    def on_message(self, src: int, msg: Any) -> None:
        if isinstance(msg, Request):
            self._on_request(src, msg)
        elif isinstance(msg, LogAccept):
            self._on_accept(src, msg)
        elif isinstance(msg, LogAccepted):
            self._on_accepted(src, msg)
        elif isinstance(msg, NewLeaderPrepare):
            self._on_prepare(src, msg)
        elif isinstance(msg, NewLeaderPromise):
            self._on_promise(src, msg)
        elif isinstance(msg, CatchUpRequest):
            self._on_catchup_request(src, msg)
        elif isinstance(msg, CatchUpReply):
            self._on_catchup_reply(src, msg)

    def _on_request(self, src: int, msg: Request) -> None:
        if self._leading:
            self._leader_enqueue(msg.message)
        else:
            leader = self.omega.leader()
            if leader is not None and leader != self.env.pid:
                self.env.send(leader, Request(msg.message))  # best-effort forward

    # ------------------------------------------------------------ acceptor side

    def _on_prepare(self, src: int, msg: NewLeaderPrepare) -> None:
        if msg.ballot <= self._promised and not (
            msg.ballot == 0 and self._promised == 0
        ):
            return
        self._promised = msg.ballot
        self._persist_acceptor()
        accepted = tuple(
            (instance, ballot, batch)
            for instance, (ballot, batch) in sorted(self._accepted.items())
            if instance >= msg.from_instance
        )
        self.env.send(src, NewLeaderPromise(msg.ballot, accepted))

    def _on_accept(self, src: int, msg: LogAccept) -> None:
        if msg.ballot < self._promised:
            return
        self._promised = msg.ballot
        if msg.instance >= self._floor.value:
            self._accepted[msg.instance] = (msg.ballot, msg.batch)
        self._persist_acceptor()
        self.env.broadcast(LogAccepted(msg.ballot, msg.instance, msg.batch))

    # ------------------------------------------------------------ new leader

    def _on_promise(self, src: int, msg: NewLeaderPromise) -> None:
        if not self._leading or self._phase1_done or msg.ballot != self._ballot:
            return
        self._promises[src] = msg
        if len(self._promises) < self.quorum:
            return
        self._phase1_done = True
        # Re-propose the highest-ballot acceptance per instance; fill gaps
        # with empty batches so delivery can progress past them.
        best: dict[int, tuple[int, frozenset]] = {}
        for promise in self._promises.values():
            for instance, ballot, batch in promise.accepted:
                if instance not in best or ballot > best[instance][0]:
                    best[instance] = (ballot, batch)
        top = max(best, default=self._next_deliver - 1)
        self._next_instance = max(self._next_instance, top + 1)
        for instance in range(self._next_deliver, top + 1):
            _, batch = best.get(instance, (0, frozenset()))
            if instance in self._chosen:
                continue
            self._in_flight.add(instance)
            self.env.broadcast(LogAccept(self._ballot, instance, batch))
        self._flush_backlog()

    # ------------------------------------------------------------- learner side

    def _on_accepted(self, src: int, msg: LogAccepted) -> None:
        instance = msg.instance
        if instance < self._floor.value or instance in self._chosen:
            return
        ballots = self._votes.get(instance)
        if ballots is None:
            ballots = self._votes[instance] = {}
        voters = ballots.get(msg.ballot)
        if voters is None:
            voters = ballots[msg.ballot] = set()
        voters.add(src)
        if len(voters) < self.quorum:
            return
        del self._votes[instance]
        self._chosen[instance] = msg.batch
        self._in_flight.discard(instance)
        self._deliver_ready()
        self._flush_backlog()

    def _deliver_ready(self) -> None:
        progressed = False
        while self._next_deliver in self._chosen:
            batch = self._chosen[self._next_deliver]
            delivered = self._deliver_batch(batch)
            for message in delivered:
                self._pending.pop(message.msg_id, None)
            self._next_deliver += 1
            progressed = True
        if progressed:
            floor = self._floor.advance(self.env.pid, self._next_deliver)
            if floor > self._kept_from:
                for instance in range(self._kept_from, floor):
                    self._accepted.pop(instance, None)
                    self._chosen.pop(instance, None)
                self._kept_from = floor
            self._persist_learner()

    # ------------------------------------------------------------- catch-up

    def _on_catchup_request(self, src: int, msg: CatchUpRequest) -> None:
        entries = tuple(
            (instance, batch)
            for instance, batch in sorted(self._chosen.items())
            if instance >= msg.from_instance
        )
        self.env.send(src, CatchUpReply(entries))

    def _on_catchup_reply(self, src: int, msg: CatchUpReply) -> None:
        floor = self._floor.value
        for instance, batch in msg.entries:
            if instance < floor:
                continue  # a later reply's prefix, delivered everywhere since
            self._chosen.setdefault(instance, batch)
            self._votes.pop(instance, None)
            self._in_flight.discard(instance)
        self._deliver_ready()
        self._flush_backlog()

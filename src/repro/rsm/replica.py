"""The replica: drives an abcast protocol, applies commands, snapshots, recovers.

:class:`RsmReplica` is the node-level process of the RSM service layer.  In
**serving** mode it hosts one atomic-broadcast module (any registered
protocol factory — the paper's C-Abcast stacks, WABCast or Multi-Paxos),
batches client requests into proposals, applies a-delivered batches to its
state machine in total order, and periodically persists a snapshot to stable
storage while compacting its in-memory command log.

In **learner** mode — how a crashed replica rejoins — it hosts *no* abcast
module (a fresh protocol instance must not re-enter decided consensus
rounds): it installs the latest snapshot from its own stable store at boot,
then polls the survivors with :class:`CatchUpRequest` messages.  Survivors
answer from their compacted log, or with their own latest snapshot when the
learner has fallen behind the compaction horizon.  Either way the learner
replays strictly less than the full command log — that is what makes
snapshots *recovery* rather than decoration.

Exactly-once: every request carries a ``(session, seq)`` identity and the
dedup check runs after total-order delivery (:mod:`repro.rsm.session`), so
all replicas suppress the same retries.  A duplicate arriving at
:meth:`submit` (a client retrying into a new home replica) is answered from
the dedup cache without re-proposing.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterator

from repro.core.abcast_base import AbcastModule, AppMessage
from repro.errors import ConfigurationError
from repro.rsm.batcher import Batcher
from repro.rsm.machine import StateMachine
from repro.rsm.session import DedupTable, Request
from repro.sim.process import Environment, HostProcess
from repro.sim.storage import StableStore
from repro.sim.trace import KINDS

__all__ = [
    "RSM_ABCAST_SCOPE",
    "CATCHUP_TIMER",
    "SUBMIT_TIMER",
    "CatchUpRequest",
    "CatchUpReply",
    "AppliedEntry",
    "ApplyRecord",
    "RsmReplica",
]

RSM_ABCAST_SCOPE = ("abc",)

#: Plain timer names (unscoped — handled by the replica itself).
CATCHUP_TIMER = "rsm-catchup"
#: Submission timers are tuples ``(SUBMIT_TIMER, attempt, request)`` so the
#: session drivers can inject requests through the node CPU model.
SUBMIT_TIMER = "rsm-submit"

#: Stable-store key holding the latest snapshot payload.
SNAPSHOT_KEY = "rsm-snapshot"


@dataclass(frozen=True, slots=True)
class CatchUpRequest:
    """A recovering learner asks for everything after ``applied_index``."""

    applied_index: int


@dataclass(frozen=True, slots=True)
class CatchUpReply:
    """Log suffix (and optionally a snapshot) answering a catch-up request.

    ``entries`` are the applied requests for indices ``start+1 ..
    start+len(entries)``.  When ``snapshot`` is present the learner installs
    it first (its ``index`` equals ``start``), then replays the entries.
    """

    start: int
    entries: tuple[Request, ...]
    snapshot: dict | None = None


@dataclass(frozen=True, slots=True)
class AppliedEntry:
    """One committed command in the authoritative apply order."""

    index: int
    request: Request
    result: Any
    at: float = field(compare=False)


_RID = attrgetter("rid")
_COMMAND = attrgetter("command")


class ApplyRecord:
    """Every command one replica applied, kept as four columns.

    Row ``i`` is one apply: ``index[i]`` (the apply index), ``request[i]``,
    ``result[i]`` and ``at[i]`` (virtual time).  The two numeric columns are
    typed arrays, so a row costs four machine words, not an
    :class:`AppliedEntry` and a boxed float.  Indexes increase strictly but
    need not be contiguous: a learner that installs a newer snapshot from a
    catch-up reply skips the indexes that snapshot covers.

    The views below are iterators over the columns, built when read, so a
    checker walks one replica's record without a materialised copy.
    :meth:`entries` materialises it for readers outside the run; it keeps
    what it built, as rows are only ever appended, and extends it by the
    rows appended since.
    """

    __slots__ = ("index", "request", "result", "at", "_entries")

    def __init__(self) -> None:
        self.index = array("q")
        self.request: list[Request] = []
        self.result: list[Any] = []
        self.at = array("d")
        self._entries: list[AppliedEntry] = []

    def append(self, index: int, request: Request, result: Any, at: float) -> None:
        self.index.append(index)
        self.request.append(request)
        self.result.append(result)
        self.at.append(at)

    def rids(self) -> Iterator[tuple[int, int]]:
        """``(session, seq)`` per apply (exactly-once, session order)."""
        return map(_RID, self.request)

    def indexed(self) -> Iterator[tuple[int, tuple[int, int]]]:
        """``(index, (session, seq))`` per apply (log agreement)."""
        return zip(self.index, map(_RID, self.request))

    def history(self) -> Iterator[tuple[Any, Any]]:
        """``(command, result)`` per apply (linearizability by replay)."""
        return zip(map(_COMMAND, self.request), self.result)

    def entries(self) -> list[AppliedEntry]:
        """Every row as an :class:`AppliedEntry`, in a fresh list."""
        built = self._entries
        start = len(built)
        if start < len(self.index):
            built.extend(
                map(
                    AppliedEntry,
                    self.index[start:],
                    self.request[start:],
                    self.result[start:],
                    self.at[start:],
                )
            )
        return list(built)

    def position(self, index: int) -> int | None:
        """The row of apply ``index``, or None if this replica skipped it.

        Rows are contiguous unless a snapshot install skipped indexes, so
        the offset from the first index is tried before a search."""
        indexes = self.index
        if indexes:
            row = index - indexes[0]
            if 0 <= row < len(indexes) and indexes[row] == index:
                return row
        row = bisect_left(indexes, index)
        return row if row < len(indexes) and indexes[row] == index else None


class RsmReplica(HostProcess):
    """One replica of the replicated state-machine service.

    When ``obs_detail`` is set (by the obs runtime), the replica emits
    ``rsm-apply``/``rsm-snapshot``/``rsm-catchup`` trace records alongside
    the always-on broadcast/deliver pair.

    Parameters
    ----------
    machine:
        The deterministic state machine commands apply to.
    store:
        Per-process stable storage; survives crashes, receives snapshots.
    module_factory:
        ``factory(host, env) -> AbcastModule`` building the abcast stack, or
        ``None`` for learner mode (rejoin-after-crash).
    batch_max, batch_delay:
        Batching triggers (see :mod:`repro.rsm.batcher`).
    snapshot_every:
        Take a snapshot (and compact the log) every this many applied
        commands; 0 disables snapshots.
    catchup_interval:
        Learner poll period for :class:`CatchUpRequest` messages.
    """

    #: Detailed rsm-* tracing; flipped on by the obs runtime per run.
    obs_detail = False

    def __init__(
        self,
        machine: StateMachine,
        store: StableStore,
        module_factory: Callable[["RsmReplica", Environment], AbcastModule] | None,
        batch_max: int = 8,
        batch_delay: float = 2e-3,
        snapshot_every: int = 25,
        catchup_interval: float = 0.02,
        tracer=None,
    ) -> None:
        super().__init__()
        if snapshot_every < 0:
            raise ConfigurationError("snapshot_every must be >= 0")
        self.machine = machine
        self.store = store
        self._module_factory = module_factory
        self._batch_max = batch_max
        self._batch_delay = batch_delay
        self.snapshot_every = snapshot_every
        self.catchup_interval = catchup_interval
        self.tracer = tracer

        self.abcast: AbcastModule | None = None
        self.batcher: Batcher | None = None
        self.dedup = DedupTable()

        #: Index of the last applied command (1-based; 0 = nothing applied).
        self.applied_index = 0
        #: Compacted protocol log: requests for indices ``log_base+1 ..
        #: applied_index`` — what this replica can serve to a learner.
        self.log: list[Request] = []
        self.log_base = 0
        #: Every apply (measurement/checker-only; never compacted and never
        #: sent on the wire — the protocol path uses ``self.log``).
        self.applies = ApplyRecord()

        self.commit_listeners: list[Callable[[int, Request, Any, float], None]] = []
        self.batch_sizes: list[int] = []
        self.snapshots_taken = 0
        self.snapshot_bytes = 0
        self.last_snapshot_index = 0
        # Learner-side recovery accounting.
        self.recovered_from_index: int | None = None
        self.snapshot_installs = 0
        self.replayed = 0

    # --------------------------------------------------------------- lifecycle

    @property
    def is_learner(self) -> bool:
        return self._module_factory is None

    @property
    def audit(self) -> list[AppliedEntry]:
        """The apply record as entries (:meth:`ApplyRecord.entries`): each
        row is built once, each read gets its own list.  Nothing in a run
        reads it; the checkers take the record's column views."""
        return self.applies.entries()

    def on_start(self) -> None:
        snapshot = self.store.get(SNAPSHOT_KEY)
        if self.is_learner:
            # Rejoin: restore the latest durable snapshot, then poll for the
            # suffix.  Without a snapshot the learner starts from index 0 and
            # the survivors will ship theirs on first contact.
            if snapshot is not None:
                self._install_snapshot(snapshot)
            self.recovered_from_index = self.applied_index
            self.env.set_timer(CATCHUP_TIMER, self.catchup_interval)
            return
        self.abcast = self.attach(
            RSM_ABCAST_SCOPE, lambda env: self._module_factory(self, env)
        )
        self.abcast.set_on_deliver(self._on_deliver)
        if self.obs_detail and self.tracer is not None:
            self.abcast.enable_obs(self.tracer)
        self.abcast.on_start()
        self.batcher = Batcher(
            self.env,
            self._propose_batch,
            max_batch=self._batch_max,
            max_delay=self._batch_delay,
        )

    # ------------------------------------------------------------- client side

    def submit(self, request: Request) -> None:
        """Accept one client request (possibly a retry) for replication."""
        if self.is_learner:
            return  # learners never serve clients
        if self.dedup.is_duplicate(request.session, request.seq):
            # Already committed — answer from the dedup cache instead of
            # re-proposing; this is the exactly-once fast path for retries
            # that failed over after their original commit.
            result = self.dedup.cached_result(request.session, request.seq)
            self._ack(request, result)
            return
        self.batcher.add(request)

    def add_commit_listener(
        self, fn: Callable[[int, Request, Any, float], None]
    ) -> None:
        """Register ``fn(pid, request, result, time)`` fired on local commit."""
        self.commit_listeners.append(fn)

    def _ack(self, request: Request, result: Any) -> None:
        now = self.env.now()
        for listener in self.commit_listeners:
            listener(self.env.pid, request, result, now)

    # ---------------------------------------------------------- the apply path

    def _propose_batch(self, batch: tuple[Request, ...]) -> None:
        message = self.abcast.a_broadcast(batch)
        if self.tracer is not None:
            self.tracer.emit_broadcast(self.env.now(), self.env.pid, message.msg_id)

    def _on_deliver(self, message: AppMessage) -> None:
        batch = message.payload
        self.batch_sizes.append(len(batch))
        if self.tracer is not None:
            self.tracer.emit_deliver(self.env.now(), self.env.pid, message.msg_id)
        for request in batch:
            self._apply(request)

    def _apply(self, request: Request) -> None:
        """Apply one totally-ordered request (dedup-filtered, deterministic)."""
        if self.dedup.is_duplicate(request.session, request.seq):
            self.dedup.note_suppressed()
            return
        result = self.machine.apply(request.command)
        self.applied_index += 1
        self.log.append(request)
        self.dedup.record(request.session, request.seq, result)
        self.applies.append(self.applied_index, request, result, self.env.now())
        if self.obs_detail and self.tracer is not None:
            self.tracer.emit(
                self.env.now(),
                self.env.pid,
                KINDS.RSM_APPLY,
                {
                    "index": self.applied_index,
                    "session": request.session,
                    "seq": request.seq,
                },
            )
        self._ack(request, result)
        if self.snapshot_every and (
            self.applied_index - self.last_snapshot_index >= self.snapshot_every
        ):
            self._take_snapshot()

    # ---------------------------------------------------- snapshots/compaction

    def _take_snapshot(self) -> None:
        payload = {
            "index": self.applied_index,
            "state": self.machine.snapshot(),
            "dedup": self.dedup.snapshot(),
            "digest": self.machine.digest(),
        }
        self.store.put(SNAPSHOT_KEY, payload)
        if self.obs_detail and self.tracer is not None:
            self.tracer.emit(
                self.env.now(),
                self.env.pid,
                KINDS.RSM_SNAPSHOT,
                {"index": self.applied_index},
            )
        self.snapshots_taken += 1
        self.snapshot_bytes += len(repr(payload))
        self.last_snapshot_index = self.applied_index
        # Log compaction: everything up to the snapshot index is now
        # recoverable from the snapshot alone.
        self.log = self.log[self.applied_index - self.log_base :]
        self.log_base = self.applied_index

    def _install_snapshot(self, payload: dict) -> None:
        self.machine.install(payload["state"])
        self.dedup.install(payload["dedup"])
        self.applied_index = payload["index"]
        self.log = []
        self.log_base = payload["index"]
        self.last_snapshot_index = payload["index"]
        self.snapshot_installs += 1

    def digest(self) -> str:
        return self.machine.digest()

    # ----------------------------------------------------------- catch-up path

    def on_plain_timer(self, name: Any) -> None:
        if isinstance(name, tuple) and name and name[0] == SUBMIT_TIMER:
            self.submit(name[2])
            return
        if name == CATCHUP_TIMER:
            for dst in self.env.peers:
                if dst != self.env.pid:
                    self.env.send(dst, CatchUpRequest(self.applied_index))
            self.env.set_timer(CATCHUP_TIMER, self.catchup_interval)
            return
        if self.batcher is not None:
            self.batcher.on_timer(name)

    def on_plain_message(self, src: int, msg: Any) -> None:
        if isinstance(msg, CatchUpRequest):
            self._serve_catchup(src, msg)
        elif isinstance(msg, CatchUpReply):
            self._absorb_catchup(msg)

    def _serve_catchup(self, src: int, req: CatchUpRequest) -> None:
        if self.is_learner or req.applied_index >= self.applied_index:
            return  # nothing newer to offer
        if req.applied_index < self.log_base:
            # The learner is behind our compaction horizon: ship the latest
            # durable snapshot plus the live suffix after it.
            snapshot = self.store.get(SNAPSHOT_KEY)
            self.env.send(
                src,
                CatchUpReply(
                    start=snapshot["index"],
                    entries=tuple(self.log),
                    snapshot=snapshot,
                ),
            )
        else:
            offset = req.applied_index - self.log_base
            self.env.send(
                src,
                CatchUpReply(
                    start=req.applied_index, entries=tuple(self.log[offset:])
                ),
            )

    def _absorb_catchup(self, reply: CatchUpReply) -> None:
        if self.obs_detail and self.tracer is not None:
            self.tracer.emit(
                self.env.now(),
                self.env.pid,
                KINDS.RSM_CATCHUP,
                {
                    "start": reply.start,
                    "entries": len(reply.entries),
                    "snapshot": reply.snapshot is not None,
                },
            )
        if reply.snapshot is not None and reply.snapshot["index"] > self.applied_index:
            self._install_snapshot(reply.snapshot)
        for i, request in enumerate(reply.entries):
            index = reply.start + 1 + i
            if index != self.applied_index + 1:
                continue  # already applied (overlapping replies from peers)
            self.replayed += 1
            self._apply(request)

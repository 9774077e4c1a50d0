"""Client sessions driving the RSM service: workloads, retries, failover.

A :class:`SessionDriver` models one client session from the outside of the
cluster (it is harness machinery, not a simulated process): it injects
requests into its *home* replica through node timers — so submission work is
charged to the replica CPU and dies with a crash, like a real RPC — and
listens for local commits to measure client-observed latency.

Two workload shapes, both fully seed-determined:

* **open-loop** — a Poisson arrival plan fixed up front (rate/clients per
  session); queueing feeds back into latency but never into arrivals,
  matching the paper's fixed-rate generators;
* **closed-loop** — one outstanding request per session; the next command is
  issued ``think_time`` after the previous commit ack.

Failure handling is the exactly-once scenario end to end: when a session's
home replica crashes, the driver re-homes to the next serving replica and
*resubmits every unacknowledged request with its original (session, seq)*.
If the original submission did commit, the retry is suppressed by the
server-side dedup table (or answered from its cache); if it died in the
crashed replica's batcher, the retry is the first and only application.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.rsm.machine import Command
from repro.rsm.replica import SUBMIT_TIMER, RsmReplica
from repro.rsm.session import Request
from repro.sim.kernel import derive_seed
from repro.sim.node import Node

__all__ = [
    "CommandStream",
    "ShardKeyStream",
    "SessionDriver",
    "ServingSet",
    "DEFAULT_MIX",
]

#: Default operation mix: mostly writes (the interesting case for ordering),
#: some reads and CAS, a few deletes.
DEFAULT_MIX: tuple[tuple[str, float], ...] = (
    ("set", 0.70),
    ("get", 0.15),
    ("cas", 0.10),
    ("del", 0.05),
)


class CommandStream:
    """Deterministic per-session command generator."""

    def __init__(
        self,
        session: int,
        seed: int,
        keys: int,
        mix: Sequence[tuple[str, float]] = DEFAULT_MIX,
    ) -> None:
        total = sum(weight for _, weight in mix)
        if not mix or total <= 0:
            raise ConfigurationError("command mix needs positive weights")
        self._rng = random.Random(derive_seed(seed, "rsm-cmds", session))
        self._session = session
        self._keys = keys
        self._mix = [(op, weight / total) for op, weight in mix]

    def _pick_key(self, rng: random.Random) -> str:
        """Draw the command's key (exactly one rng call).

        Subclasses narrow the keyspace — the shard-pinned stream draws from
        its shard's key slice — while keeping the draw structure identical,
        so a one-group topology generates byte-identical workloads.
        """
        return f"k{rng.randrange(self._keys)}"

    def next(self, seq: int) -> Command:
        rng = self._rng
        draw = rng.random()
        acc = 0.0
        op = self._mix[-1][0]
        for name, weight in self._mix:
            acc += weight
            if draw < acc:
                op = name
                break
        key = self._pick_key(rng)
        if op == "set":
            return Command("set", key, value=f"s{self._session}.{seq}")
        if op == "get":
            return Command("get", key)
        if op == "del":
            return Command("del", key)
        # CAS against a plausible previous own write: succeeds occasionally,
        # fails deterministically otherwise — both outcomes are checked.
        expect = f"s{self._session}.{rng.randrange(1, seq + 1)}"
        return Command("cas", key, value=f"s{self._session}.{seq}", expect=expect)


class ShardKeyStream(CommandStream):
    """Per-session command stream drawing keys from one shard's slice.

    Same draw structure as the base stream (one rng call per key pick), so
    session workloads stay seed-determined; only the key universe narrows.
    """

    def __init__(
        self, session: int, seed: int, keys: int, slice_keys: tuple[str, ...]
    ) -> None:
        super().__init__(session, seed, keys)
        self._slice = slice_keys

    def _pick_key(self, rng: random.Random) -> str:
        return self._slice[rng.randrange(len(self._slice))]


class ServingSet:
    """The replicas currently accepting client traffic.

    A crashed replica leaves the set permanently: its later reincarnation is
    a learner (it does not run the broadcast protocol), so clients never
    route requests to it.
    """

    def __init__(self, pids: Iterable[int]) -> None:
        self._pids = sorted(pids)

    def remove(self, pid: int) -> None:
        if pid in self._pids:
            self._pids.remove(pid)

    def next_home(self, preferred: int) -> int:
        if not self._pids:
            raise ConfigurationError("no serving replicas left for failover")
        for pid in self._pids:
            if pid >= preferred:
                return pid
        return self._pids[0]

    def pids(self) -> list[int]:
        return list(self._pids)

    def __contains__(self, pid: int) -> bool:
        return pid in self._pids


@dataclass
class _PendingRequest:
    request: Request
    submit_at: float  # client-side submit stamp (latency starts here)
    attempts: int


class SessionDriver:
    """One client session: issues commands, tracks acks, fails over."""

    def __init__(
        self,
        session: int,
        home: int,
        nodes: dict[int, Node],
        replicas: dict[int, RsmReplica],
        serving: ServingSet,
        stream: CommandStream,
        duration: float,
        mode: str = "open",
        arrivals: Sequence[float] = (),
        think_time: float = 0.0,
        start_at: float = 1e-4,
        failover_delay: float = 5e-3,
    ) -> None:
        if mode not in ("open", "closed"):
            raise ConfigurationError(f"unknown session mode {mode!r}")
        self.session = session
        self.home = home
        self.nodes = nodes
        self.replicas = replicas
        self.serving = serving
        self.stream = stream
        self.duration = duration
        self.mode = mode
        self.think_time = think_time
        self.start_at = start_at
        self.failover_delay = failover_delay

        self._next_seq = 0
        self._attempt = 0
        self.pending: dict[int, _PendingRequest] = {}  # seq -> in-flight
        self.acked: dict[int, tuple[float, float]] = {}  # seq -> (submit, ack)
        self.retries = 0
        # Open-loop plan: absolute submit times fixed up front.
        self._plan = list(arrivals)
        self._plan_next = 0

    # ----------------------------------------------------------------- wiring

    def start(self) -> None:
        """Schedule the session's initial submissions (at virtual time 0)."""
        if self.mode == "open":
            while self._plan_next < len(self._plan):
                at = self._plan[self._plan_next]
                self._plan_next += 1
                self._issue_next(at, at)
        else:
            self._issue_next(self.start_at, self.start_at)

    def _issue_next(self, at: float, submit_stamp: float) -> None:
        self._next_seq += 1
        seq = self._next_seq
        request = Request(self.session, seq, self.stream.next(seq))
        self.pending[seq] = _PendingRequest(request, submit_stamp, attempts=0)
        self._schedule_submit(request, at)

    def _schedule_submit(self, request: Request, at: float) -> None:
        node = self.nodes[self.home]
        record = self.pending[request.seq]
        record.attempts += 1
        self._attempt += 1
        delay = max(0.0, at - node.sim.now)
        node.set_timer((SUBMIT_TIMER, self._attempt, request), delay)

    # ------------------------------------------------------------------- acks

    def on_commit(self, pid: int, request: Request, result, at: float) -> None:
        """Commit upcall from a replica; only the current home acks us."""
        if request.session != self.session or pid != self.home:
            return
        record = self.pending.pop(request.seq, None)
        if record is None:
            return  # stale duplicate ack
        self.acked[request.seq] = (record.submit_at, at)
        if self.mode == "closed":
            next_at = at + self.think_time
            if next_at < self.duration:
                self._issue_next(next_at, next_at)

    # --------------------------------------------------------------- failover

    def on_replica_crash(self, pid: int, now: float) -> None:
        """Re-home and resubmit everything unacknowledged (same seqs)."""
        if pid != self.home:
            return
        self.home = self.serving.next_home(self.home)
        retry_at = now + self.failover_delay
        not_before = now
        for seq in sorted(self.pending):
            record = self.pending[seq]
            # Anything already issued into the dead replica is retried after
            # the failover delay, with the same (session, seq) identity.
            # Future open-loop submissions keep their planned times, except
            # that none may overtake a retry: the dedup table is a per-session
            # high-water mark, so a later seq applied first would make the
            # retried one a duplicate at every replica — suppressed, never
            # applied, never acknowledged.  Timers due at the same instant
            # fire in scheduling order, so seq order holds at ``retry_at``.
            if record.submit_at > now:
                at = max(record.submit_at, not_before)
            else:
                at = not_before = retry_at
                self.retries += 1
            self._schedule_submit(record.request, at)

    # ---------------------------------------------------------------- metrics

    def latencies(self) -> list[tuple[float, float]]:
        """(submit, ack) pairs for every acknowledged request."""
        return [self.acked[seq] for seq in sorted(self.acked)]

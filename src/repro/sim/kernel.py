"""Discrete-event simulation kernel.

The kernel is the deterministic substrate every experiment in this repository
runs on.  It replaces the Neko framework and the physical cluster used in the
paper's evaluation (section 8) with a reproducible event loop:

* a virtual clock (``float`` seconds, starts at 0.0),
* a priority queue of timestamped events with total, deterministic ordering
  (ties broken by insertion sequence number),
* named, independently seeded random streams so that changing how one
  component consumes randomness never perturbs another component.

The kernel knows nothing about networks, nodes or protocols; those live in
:mod:`repro.sim.network` and :mod:`repro.sim.node`.

Hot-path layout
---------------
The heap holds plain ``(time, seq, fn, args, event)`` tuples, so heap sifting
compares tuples in C — ``seq`` is unique, so comparison never reaches the
callback.  :class:`Event` is a ``__slots__`` handle used only for
cancellation; the internal fire-and-forget path (``schedule_call_at``, used
for message arrivals and handler runs, which are never cancelled) pushes
``event=None`` and skips the allocation.  Cancellation is *lazy*: ``cancel()`` flips a flag
and bumps a counter; the dead entry stays queued until it surfaces at the heap
top (where it is discarded) or until cancelled entries outnumber live ones,
at which point the queue is compacted in place.  ``pending()`` is therefore
O(1), and a long-lived pile of cancelled timers costs memory only, not time.

Batched drain (cohort execution)
--------------------------------
``run()`` drains the queue in *cohorts*: whenever the queue is at least
``_BATCH_MIN`` deep, the whole backlog is moved into a reusable list with one
C-level copy, sorted once (a sorted ``(time, seq, ...)`` array generalises
the equal-timestamp cohort — it is the maximal run of entries already in
execution order), and executed through a single dispatch frame.  One
``list.sort`` replaces one ``heappop`` *per event*, which is where the
per-event Python overhead of the old loop lived.  Correctness under
mid-cohort scheduling is preserved by a *merge guard*: before each cohort
entry fires, any newly pushed heap entry that precedes it (tuple order) is
popped and executed first, so the observable event order — and therefore
every trace byte — is identical to the one-event-at-a-time loop.  Events
cancelled after their cohort was gathered are skipped at fire time, exactly
as a still-queued entry would be.  ``max_events`` runs keep the serial loop
(its budget may expire mid-cohort), as does ``batch=False``.
"""

from __future__ import annotations

import heapq
import random
import zlib
from bisect import bisect_right
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = ["Event", "Simulator", "derive_seed"]

#: Negative delays no larger than this are treated as float roundoff from
#: ``schedule_at`` arithmetic and clamped to zero instead of raising.
_EPSILON = 1e-12

#: Compaction policy: rebuild the heap once at least this many cancelled
#: entries are queued *and* they outnumber the live ones.
_COMPACT_MIN_CANCELLED = 64

#: Queue depth below which the batched drain falls back to per-event pops:
#: copying + sorting a near-empty queue costs more than it saves.
_BATCH_MIN = 64

#: The reusable cohort list is dropped (and reallocated small) after a batch
#: larger than this, so one huge drain does not pin its memory forever.
_BATCH_KEEP = 4096

#: Sort/bisect key of a heap entry (its timestamp).
_ENTRY_TIME = itemgetter(0)

#: Sentinel horizon for unbounded runs (one float compare per event).
_INF = float("inf")


def derive_seed(root_seed: int, *names: Any) -> int:
    """Derive a child seed from ``root_seed`` and a path of names.

    The derivation is stable across processes and Python versions (it uses
    CRC32 over the repr of the path rather than :func:`hash`, which is
    salted).  Two different paths practically never collide for the purposes
    of statistical independence between component streams.
    """
    material = repr((root_seed,) + names).encode("utf-8")
    return zlib.crc32(material) ^ (root_seed & 0xFFFFFFFF)


class Event:
    """A scheduled callback (cancellation handle).

    Events order by ``(time, seq)``; ``seq`` is a monotonically increasing
    insertion counter, which makes simultaneous events fire in the order they
    were scheduled — the property that makes whole-experiment runs
    bit-reproducible.  The ordering itself is carried by the kernel's heap
    tuples; this object exists so callers can :meth:`cancel`.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple = (),
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        # _sim is cleared exactly once, when the event fires, so it must be
        # consulted first: cancel() after firing is a documented no-op and
        # must not relabel a fired event as "cancelled".
        if self._sim is None:
            state = "done"
        elif self.cancelled:
            state = "cancelled"
        else:
            state = "pending"
        return f"Event(time={self.time!r}, seq={self.seq}, {state})"

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when its time comes.

        Idempotent, and a harmless no-op after the event has already fired
        (cancel-after-pop) — matching the seed kernel's semantics.
        """
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                # Still queued: account for the dead entry so pending() stays
                # O(1) and the queue can be compacted when mostly dead.
                sim._note_cancel()


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all random streams obtained through :meth:`rng`.
    batch:
        When True (the default), :meth:`run` drains deep queues in sorted
        cohorts (see module docstring).  Execution order — and therefore
        every same-seed trace byte — is identical either way; ``batch=False``
        keeps the one-event-at-a-time loop for A/B debugging.

    Example
    -------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> sim.run()
    >>> fired
    ['a', 'b']
    """

    def __init__(self, seed: int = 0, batch: bool = True) -> None:
        self.seed = seed
        self.batch = batch
        # Heap entries are (time, seq, fn, args, event-or-None): seq is
        # unique, so tuple comparison never reaches fn.  The Event handle is
        # only materialised by schedule()/schedule_at(); the internal
        # fire-and-forget path (schedule_call_at) pushes a bare entry.
        self._queue: list[tuple[float, int, Callable[..., None], tuple, Event | None]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._rngs: dict[tuple, random.Random] = {}
        self._events_processed = 0
        self._cancelled_queued = 0
        self._compactions = 0
        # Batched-drain state: the reusable cohort list, the count of cohort
        # entries not yet fired (so pending() matches the serial loop from
        # inside a handler), and lifetime counters surfaced by repro.perf.
        self._drain_batch: list[tuple[float, int, Callable[..., None], tuple, Event | None]] = []
        self._drain_remaining = 0
        self._drain_batches = 0
        self._drain_batched = 0
        #: True when the last :meth:`run` stopped on its ``max_events``
        #: budget with an event still due: the run did not reach its horizon.
        self.exhausted = False

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for diagnostics and tests)."""
        return self._events_processed

    @property
    def events_scheduled(self) -> int:
        """Number of events ever scheduled (diagnostics)."""
        return self._seq

    @property
    def compactions(self) -> int:
        """Number of heap compactions performed (diagnostics)."""
        return self._compactions

    @property
    def drain_batches(self) -> int:
        """Number of sorted-cohort drain cycles executed (diagnostics)."""
        return self._drain_batches

    @property
    def batched_events(self) -> int:
        """Events gathered into sorted cohorts rather than popped one by one."""
        return self._drain_batched

    # ------------------------------------------------------------- randomness

    def rng(self, *names: Any) -> random.Random:
        """Return the named random stream, creating it on first use.

        Streams are memoised: ``sim.rng("net")`` always returns the same
        :class:`random.Random` instance for the same path, seeded from the
        simulator's root seed and the path.
        """
        stream = self._rngs.get(names)
        if stream is None:
            stream = random.Random(derive_seed(self.seed, *names))
            self._rngs[names] = stream
        return stream

    # ------------------------------------------------------------- scheduling

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, whose :meth:`Event.cancel` method removes
        it logically from the queue.  ``delay`` must be non-negative; negative
        delays within float-roundoff distance of zero (1e-12) are clamped.
        """
        if delay < 0.0:
            if delay >= -_EPSILON:
                delay = 0.0
            else:
                raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self)
        heappush(self._queue, (time, seq, fn, args, event))
        return event

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``.

        Sub-epsilon roundoff below ``now`` (a time a hair in the past after
        float arithmetic) is clamped to ``now`` rather than raising.
        """
        # Kept as now + (time - now), not time itself: the historical event
        # timestamps were computed this way and bit-reproducibility of old
        # traces depends on the exact float arithmetic.
        now = self._now
        delay = time - now
        if delay < 0.0:
            if delay >= -_EPSILON:
                delay = 0.0
            else:
                raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        time = now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, self)
        heappush(self._queue, (time, seq, fn, args, event))
        return event

    def schedule_call_at(self, time: float, fn: Callable[..., None], args: tuple) -> None:
        """Fire-and-forget :meth:`schedule_at`: no cancellation handle.

        The hot internal callers (network arrivals, node handler runs) never
        cancel their events, so this path skips the :class:`Event`
        allocation entirely.  Ordering and timestamp arithmetic are identical
        to :meth:`schedule_at`.
        """
        now = self._now
        delay = time - now
        if delay < 0.0:
            if delay >= -_EPSILON:
                delay = 0.0
            else:
                raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (now + delay, seq, fn, args, None))

    # ---------------------------------------------------------- cancellation

    def _note_cancel(self) -> None:
        """Account for one newly cancelled, still-queued event.

        Compaction is deferred while a cohort is mid-drain
        (``_drain_remaining`` nonzero): ``_compact`` resets the cancelled
        counter from what it can see in the heap, but batch-resident
        cancelled entries live outside the heap and are settled one by one
        as the drain skips them.
        """
        self._cancelled_queued += 1
        if (
            self._drain_remaining == 0
            and self._cancelled_queued >= _COMPACT_MIN_CANCELLED
            and self._cancelled_queued * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In-place (``queue[:] = ...``) so that a compaction triggered from
        inside a running event handler stays visible to the run loop's local
        alias of the queue.  Total order is ``(time, seq)`` with unique
        ``seq``, so the pop order of survivors is unchanged.
        """
        queue = self._queue
        queue[:] = [
            entry for entry in queue if entry[4] is None or not entry[4].cancelled
        ]
        heapq.heapify(queue)
        self._cancelled_queued = 0
        self._compactions += 1

    # -------------------------------------------------------------- execution

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event queue.

        Runs until the queue is empty, the optional ``until`` horizon is
        reached (events after the horizon stay queued and ``now`` advances to
        exactly ``until``), the optional ``max_events`` budget is exhausted
        (:attr:`exhausted` is then set and ``now`` stays at the last event),
        or :meth:`stop` is called from within an event handler.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        self.exhausted = False
        try:
            if max_events is None and self.batch:
                self._run_batched(until)
            else:
                self._run_serial(until, max_events)
            if (
                until is not None
                and not self._stopped
                and not self.exhausted
                and self._now < until
            ):
                self._now = until
        finally:
            self._running = False

    def _run_serial(self, until: float | None, max_events: int | None) -> None:
        """Legacy one-event-at-a-time drain loop (also the budgeted path)."""
        budget = max_events
        queue = self._queue
        pop = heappop
        processed = 0
        try:
            while queue and not self._stopped:
                time, _seq, fn, args, event = queue[0]
                if event is not None and event.cancelled:
                    pop(queue)
                    self._cancelled_queued -= 1
                    continue
                if until is not None and time > until:
                    break
                if budget is not None:
                    if budget == 0:
                        self.exhausted = True
                        break
                    budget -= 1
                pop(queue)
                if time < self._now:
                    raise SimulationError(
                        f"event queue corrupted: event at {time} < now {self._now}"
                    )
                if event is not None:
                    event._sim = None  # popped: cancel() becomes a pure no-op
                self._now = time
                processed += 1
                fn(*args)
        finally:
            self._events_processed += processed

    def _run_batched(self, until: float | None) -> None:
        """Sorted-cohort drain: gather the backlog, sort once, dispatch flat.

        See the module docstring for the design.  Invariants maintained per
        cohort:

        * ``self._queue`` keeps its object identity (external fast paths
          alias it) — the backlog is copied out and the list cleared.
        * Events keep their ``_sim`` link until they actually fire, so
          ``cancel()`` on a batch-resident event still accounts correctly
          and the drain skips it at fire time, exactly as the heap would.
        * ``_drain_remaining`` tracks the unfired remainder of the cohort
          whenever a handler runs, keeping :meth:`pending` exact.
        * ``stop()`` or an exception pushes the unexecuted tail back onto
          the heap, leaving the queue consistent for a later resume.
        * A fired (or skipped) entry's slot is cleared, so the cohort holds
          only its unfired tail.
        """
        queue = self._queue
        pop = heappop
        batch = self._drain_batch
        # One float compare per event instead of a None test plus compare.
        horizon = _INF if until is None else until
        processed = 0
        batches = 0
        batched = 0
        try:
            while queue and not self._stopped:
                if len(queue) < _BATCH_MIN:
                    # Shallow queue: gathering would cost more than it saves.
                    # Pop eagerly (no root peek): only the one horizon-crossing
                    # entry per run is ever pushed back.
                    entry = pop(queue)
                    time, _seq, fn, args, event = entry
                    if event is not None and event.cancelled:
                        self._cancelled_queued -= 1
                        continue
                    if time > horizon:
                        heappush(queue, entry)
                        break
                    if time < self._now:
                        raise SimulationError(
                            f"event queue corrupted: event at {time} < now {self._now}"
                        )
                    if event is not None:
                        event._sim = None
                    self._now = time
                    processed += 1
                    fn(*args)
                    continue

                # Gather: one C-level copy plus one sort replaces a heappop
                # per event.  Copy-and-clear preserves the queue's identity.
                batch[:] = queue
                del queue[:]
                batch.sort()
                first = batch[0][0]
                if first < self._now:
                    queue.extend(batch)  # sorted into empty queue: valid heap
                    del batch[:]
                    raise SimulationError(
                        f"event queue corrupted: event at {first} < now {self._now}"
                    )
                if batch[-1][0] > horizon:
                    cut = bisect_right(batch, horizon, key=_ENTRY_TIME)
                    queue.extend(batch[cut:])
                    del batch[cut:]
                    if not batch:
                        break
                n = len(batch)
                batches += 1
                batched += n
                i = 0
                try:
                    while i < n:
                        if self._stopped:
                            break
                        entry = batch[i]
                        if queue and queue[0] < entry:
                            # Merge guard: events scheduled mid-cohort that
                            # precede the next cohort entry (tuple order —
                            # their seqs are fresher, so comparison never
                            # reaches fn) fire first, preserving the exact
                            # serial execution order.
                            self._drain_remaining = n - i
                            while queue:
                                head = queue[0]
                                if not head < entry:
                                    break
                                pop(queue)
                                mtime, _mseq, mfn, margs, mevent = head
                                if mevent is not None:
                                    if mevent.cancelled:
                                        self._cancelled_queued -= 1
                                        continue
                                    mevent._sim = None
                                if mtime < self._now:
                                    raise SimulationError(
                                        f"event queue corrupted: event at "
                                        f"{mtime} < now {self._now}"
                                    )
                                self._now = mtime
                                processed += 1
                                mfn(*margs)
                                if self._stopped:
                                    break
                            if self._stopped:
                                break
                        time, _seq, fn, args, event = entry
                        # Let go of the entry as it fires: a long cohort
                        # (every open-loop submit timer of a run) must not
                        # pin its fired events until the cohort ends.
                        batch[i] = None
                        i += 1
                        if event is not None:
                            if event.cancelled:
                                self._cancelled_queued -= 1
                                continue
                            event._sim = None
                        self._now = time
                        self._drain_remaining = n - i
                        processed += 1
                        fn(*args)
                finally:
                    self._drain_remaining = 0
                    if i < n:
                        # stop()/exception mid-cohort: unexecuted tail back
                        # on the heap so the queue stays consistent.
                        del batch[:i]
                        queue.extend(batch)
                        if len(queue) != len(batch):
                            heapify(queue)
                    if n > _BATCH_KEEP:
                        batch = self._drain_batch = []
                    else:
                        del batch[:]
        finally:
            self._events_processed += processed
            self._drain_batches += batches
            self._drain_batched += batched

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False if none remain.

        Applies the same queue-corruption check as :meth:`run`, so a
        step-driven drain cannot silently rewind virtual time either.
        """
        queue = self._queue
        while queue:
            time, _seq, fn, args, event = heappop(queue)
            if event is not None:
                if event.cancelled:
                    self._cancelled_queued -= 1
                    continue
            if time < self._now:
                raise SimulationError(
                    f"event queue corrupted: event at {time} < now {self._now}"
                )
            if event is not None:
                event._sim = None
            self._now = time
            self._events_processed += 1
            fn(*args)
            return True
        return False

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1).

        During a batched drain the unfired remainder of the current cohort
        counts as queued, so a handler observes exactly the value it would
        under the serial loop — obs metric samples depend on this.
        """
        return len(self._queue) + self._drain_remaining - self._cancelled_queued

"""Structured trace capture for simulated runs.

Protocols and checkers publish trace records (decisions, deliveries, round
transitions) to a :class:`Tracer`.  Tests assert on traces; the experiment
harness derives latency and step-count metrics from them.  Tracing is
pull-free and allocation-light: a record is a named tuple appended to a
:class:`TraceLog`, the per-kind index is built when first queried, and
subscribers get synchronous callbacks.  A run whose records nobody can read
back gets a :class:`CountingTracer`, which keeps only per-kind counts.

The :class:`KINDS` vocabulary covers the full causal story of a run: the
always-on application events (``a-broadcast``, ``a-deliver``, ``decide``)
plus the detailed kinds that :mod:`repro.obs` turns on per run — proposals,
round/phase transitions, failure-detector output, network message ids and
RSM lifecycle events.  Detailed kinds are opt-in so that existing runs stay
byte-identical when observability is off.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from typing import Any, Callable, Iterable, NamedTuple

__all__ = [
    "KINDS",
    "ROW_KINDS",
    "CountingTracer",
    "TraceLog",
    "TraceRecord",
    "Tracer",
    "describe_value",
    "row_data",
]


class KINDS:
    """Canonical trace-kind vocabulary.

    Call sites should use these constants (or the typed ``emit_*`` helpers on
    :class:`Tracer`) instead of retyping the strings; raw ``emit`` with any
    kind keeps working for ad-hoc instrumentation.
    """

    # Always-on application events.
    A_BROADCAST = "a-broadcast"
    A_DELIVER = "a-deliver"
    DECIDE = "decide"

    # Detailed kinds, emitted only when observability is enabled.
    PROPOSE = "propose"
    ROUND_START = "round-start"
    ROUND_END = "round-end"
    LEADER_CHANGE = "leader-change"
    SUSPECT = "suspect"
    TRUST = "trust"
    # msg-send data carries {"dst", "kind", "channel", "id"} and msg-deliver
    # {"src", "kind", "channel", "id"}, where "id" is the network-wide send
    # sequence number — the causal edge linking each delivery back to its
    # originating send (consumed by repro.obs.causal).
    MSG_SEND = "msg-send"
    MSG_DELIVER = "msg-deliver"
    RSM_APPLY = "rsm-apply"
    RSM_SNAPSHOT = "rsm-snapshot"
    RSM_CATCHUP = "rsm-catchup"

    # Cross-shard transaction lifecycle (emitted by the 2PC txn driver;
    # pid is the home replica the step was submitted through).
    TXN_BEGIN = "txn-begin"
    TXN_VOTE = "txn-vote"
    TXN_DECIDE = "txn-decide"
    TXN_END = "txn-end"

    # Fault-injection lifecycle.  ``net-partition``/``net-heal`` are emitted
    # by the network itself (detailed, like msg-send) whenever a partition is
    # applied or removed; ``nemesis-start``/``nemesis-end`` bracket each
    # scheduled nemesis op and are emitted whenever a tracer is attached to a
    # run carrying a nemesis schedule (a nemesis-free run never produces
    # them, so existing trace output is unchanged).  All four use pid = -1:
    # faults are god's-eye events, like the oracle detector's records.
    NET_PARTITION = "net-partition"
    NET_HEAL = "net-heal"
    NEMESIS_START = "nemesis-start"
    NEMESIS_END = "nemesis-end"

    ALL = frozenset(
        {
            A_BROADCAST,
            A_DELIVER,
            DECIDE,
            PROPOSE,
            ROUND_START,
            ROUND_END,
            LEADER_CHANGE,
            SUSPECT,
            TRUST,
            MSG_SEND,
            MSG_DELIVER,
            RSM_APPLY,
            RSM_SNAPSHOT,
            RSM_CATCHUP,
            TXN_BEGIN,
            TXN_VOTE,
            TXN_DECIDE,
            TXN_END,
            NET_PARTITION,
            NET_HEAL,
            NEMESIS_START,
            NEMESIS_END,
        }
    )


#: Kinds whose data is already in exported row form: their one emitter (the
#: network) builds each record's data as a fresh flat ``str -> scalar`` dict,
#: which :func:`describe_value` would only copy and re-sort.  Readers that
#: turn records into rows take this data as it is (:func:`row_data`).
ROW_KINDS = frozenset({KINDS.MSG_SEND, KINDS.MSG_DELIVER})

#: Exact types :func:`describe_value` returns unchanged.
_SCALARS = frozenset({type(None), bool, int, float, str})


def describe_value(value: Any) -> Any:
    """Deterministic, JSON-friendly description of a traced value.

    Trace payloads end up in exported JSONL files that must be byte-identical
    across same-seed runs.  Sets are the hazard: ``PYTHONHASHSEED`` salts
    string hashes, so iterating (or ``repr``-ing) a set of strings is not
    reproducible.  This helper sorts set-like values and renders message
    objects by their stable identity instead.
    """
    # Exact-type fast path for flat str -> scalar dicts, which need no
    # per-item recursion.  Anything else (subclasses, nesting, non-str
    # keys) takes the general path below, which gives the same result for
    # these shapes too.
    if type(value) is dict:
        for key, item in value.items():
            if type(key) is not str or type(item) not in _SCALARS:
                break
        else:
            return {key: value[key] for key in sorted(value)}
    elif value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [describe_value(v) for v in value]
    msg_id = getattr(value, "msg_id", None)
    if msg_id is not None:
        return describe_value(msg_id)
    if isinstance(value, (set, frozenset)):
        described = [describe_value(v) for v in value]
        return sorted(described, key=repr)
    if isinstance(value, dict):
        return {str(k): describe_value(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return repr(value)


def row_data(kind: str, data: Any) -> Any:
    """The exported form of one record's data: as it is for
    :data:`ROW_KINDS`, :func:`describe_value` of it otherwise.

    Rows of those kinds share their dict with the record, so a reader must
    not mutate them.
    """
    return data if kind in ROW_KINDS else describe_value(data)


class TraceRecord(NamedTuple):
    """One traced occurrence: an immutable ``(time, pid, kind, data)``
    tuple, which is cheaper to build per emit than a frozen dataclass."""

    time: float
    pid: int
    kind: str
    data: Any = None


#: Builds a named tuple from a tuple of its fields without the generated
#: ``__new__`` frame: ``_new(TraceRecord, (time, pid, kind, data))``.
_new = tuple.__new__


class TraceLog(list):
    """A tracer's records, in emission order: a list with one slot.

    ``fold`` holds what a reader derived from the whole log, for the next
    reader to take instead of folding it again (:mod:`repro.obs.causal`
    keeps its span and critical-path fold there).  The reader records the
    length it folded at and trusts the fold only while the log still has
    that length, which holds because records are only ever appended.
    :meth:`clear` drops the fold; a pickled or copied log carries its
    records only.
    """

    __slots__ = ("fold",)

    def __init__(self, records: Iterable[TraceRecord] = ()) -> None:
        super().__init__(records)
        self.fold: Any = None

    def clear(self) -> None:
        super().clear()
        self.fold = None

    def __reduce__(self) -> tuple:
        return (TraceLog, (list(self),))


class Tracer:
    """Collects :class:`TraceRecord` instances and notifies subscribers.

    ``emit`` only appends.  The per-kind index behind the common queries
    (:meth:`of_kind`, :meth:`by_pid` with a kind, :meth:`counts`,
    :meth:`first`, :meth:`kinds`) is brought up to date when one of them
    runs, over the records emitted since the last query: a run queried once
    at its end indexes each record once, and pays nothing while it runs.
    """

    def __init__(self) -> None:
        self.records = TraceLog()
        self._subscribers: list[Callable[[TraceRecord], None]] = []
        self._by_kind: dict[str, list[TraceRecord]] = {}
        #: How many leading records ``_by_kind`` holds.
        self._indexed = 0

    def emit(self, time: float, pid: int, kind: str, data: Any = None) -> None:
        record = _new(TraceRecord, (time, pid, kind, data))
        self.records.append(record)
        if self._subscribers:
            for fn in self._subscribers:
                fn(record)

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> Callable[[TraceRecord], None]:
        """Register ``fn`` for synchronous record callbacks; returns ``fn``.

        Returning the callable makes the subscribe/unsubscribe pairing easy
        even for lambdas: ``handle = tracer.subscribe(lambda r: ...)``.
        """
        self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Detach ``fn``; silently ignores callbacks that are not subscribed."""
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    # ------------------------------------------------------------ typed emits

    def emit_broadcast(self, time: float, pid: int, msg_id: Any) -> None:
        """Record an a-broadcast of ``msg_id``."""
        self.emit(time, pid, KINDS.A_BROADCAST, msg_id)

    def emit_deliver(self, time: float, pid: int, msg_id: Any) -> None:
        """Record an a-delivery of ``msg_id``."""
        self.emit(time, pid, KINDS.A_DELIVER, msg_id)

    def emit_decide(self, time: float, pid: int, value: Any, steps: int, via: str) -> None:
        """Record a consensus decision with its step count and decision path."""
        self.emit(time, pid, KINDS.DECIDE, {"value": value, "steps": steps, "via": via})

    def emit_propose(self, time: float, pid: int, value: Any, instance: Any = None) -> None:
        """Record a consensus proposal (detailed kind)."""
        self.emit(
            time,
            pid,
            KINDS.PROPOSE,
            {"value": describe_value(value), "instance": instance},
        )

    def emit_round_start(
        self, time: float, pid: int, round: int, instance: Any = None, phase: str | None = None
    ) -> None:
        """Record the start of a round (optionally a named phase within it)."""
        data: dict[str, Any] = {"round": round, "instance": instance}
        if phase is not None:
            data["phase"] = phase
        self.emit(time, pid, KINDS.ROUND_START, data)

    def emit_round_end(
        self,
        time: float,
        pid: int,
        outcome: str,
        steps: int,
        via: str,
        value: Any,
        instance: Any = None,
    ) -> None:
        """Record the terminal transition of a consensus instance."""
        self.emit(
            time,
            pid,
            KINDS.ROUND_END,
            {
                "outcome": outcome,
                "steps": steps,
                "via": via,
                "value": describe_value(value),
                "instance": instance,
            },
        )

    def emit_suspect(self, time: float, pid: int, suspect: int) -> None:
        self.emit(time, pid, KINDS.SUSPECT, {"suspect": suspect})

    def emit_trust(self, time: float, pid: int, suspect: int) -> None:
        self.emit(time, pid, KINDS.TRUST, {"suspect": suspect})

    def emit_leader_change(self, time: float, pid: int, leader: int | None) -> None:
        self.emit(time, pid, KINDS.LEADER_CHANGE, {"leader": leader})

    # ----------------------------------------------------------------- queries

    def _index(self) -> dict[str, list[TraceRecord]]:
        """The per-kind index, extended over the records not yet in it."""
        records = self.records
        if self._indexed < len(records):
            by_kind = self._by_kind
            for record in islice(records, self._indexed, None):
                bucket = by_kind.get(record.kind)
                if bucket is None:
                    by_kind[record.kind] = bucket = []
                bucket.append(record)
            self._indexed = len(records)
        return self._by_kind

    def of_kind(self, kind: str) -> list[TraceRecord]:
        return list(self._index().get(kind, ()))

    def by_pid(self, kind: str | None = None) -> dict[int, list[TraceRecord]]:
        source = self.records if kind is None else self._index().get(kind, ())
        out: dict[int, list[TraceRecord]] = defaultdict(list)
        for r in source:
            out[r.pid].append(r)
        return dict(out)

    def first(self, kind: str) -> TraceRecord | None:
        bucket = self._index().get(kind)
        return bucket[0] if bucket else None

    def kinds(self) -> set[str]:
        return set(self._index())

    def counts(self) -> dict[str, int]:
        """Number of records per kind (in first-seen kind order)."""
        return {kind: len(bucket) for kind, bucket in self._index().items()}

    def filter(self, predicate: Callable[[TraceRecord], bool]) -> Iterable[TraceRecord]:
        return (r for r in self.records if predicate(r))

    def clear(self) -> None:
        self.records.clear()
        self._by_kind.clear()
        self._indexed = 0


class CountingTracer(Tracer):
    """A tracer whose records nobody reads back: it counts, it stores none.

    ``execute_run`` builds one for every run it owns that has no obs knob
    set, because its report reads only :meth:`counts`.  Per kind it keeps the
    time of the first record and the number of records, in first-seen kind
    order, so :meth:`counts` is exactly what a recording :class:`Tracer`
    would answer.  Subscribers still get every record; every other query
    sees an empty trace.
    """

    def __init__(self) -> None:
        super().__init__()
        #: ``{kind: [time of the first record, number of records]}``.
        self._tally: dict[str, list] = {}

    def emit(self, time: float, pid: int, kind: str, data: Any = None) -> None:
        self.absorb(kind, time, 1)
        if self._subscribers:
            record = _new(TraceRecord, (time, pid, kind, data))
            for fn in self._subscribers:
                fn(record)

    def absorb(self, kind: str, first: float, count: int) -> None:
        """Count ``count`` records of ``kind``, the first of them at
        ``first``; a kind not seen before is first-seen now."""
        entry = self._tally.get(kind)
        if entry is None:
            self._tally[kind] = [first, count]
        else:
            entry[1] += count

    def clear(self) -> None:
        super().clear()
        self._tally.clear()

    def tally(self) -> dict[str, tuple[float, int]]:
        """``{kind: (time of the first record, count)}``, first-seen order."""
        return {kind: (first, count) for kind, (first, count) in self._tally.items()}

    def counts(self) -> dict[str, int]:
        return {kind: count for kind, (_, count) in self._tally.items()}

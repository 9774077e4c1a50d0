"""Structured trace capture for simulated runs.

Protocols and checkers publish trace records (decisions, deliveries, round
transitions) to a :class:`Tracer`.  Tests assert on traces; the experiment
harness derives latency and step-count metrics from them.  Tracing is
pull-free and allocation-light: a record is a named tuple appended to a
:class:`TraceLog` — except the network's message rows, which the log keeps
as typed columns — the per-kind index is built when first queried, and
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

from array import array
from collections import defaultdict
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, NamedTuple

__all__ = [
    "KINDS",
    "ROW_KINDS",
    "CountingTracer",
    "LogColumns",
    "RowCode",
    "RowWriter",
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

#: The data key naming the peer of each message-row kind.
_PEER_KEYS = {KINDS.MSG_SEND: "dst", KINDS.MSG_DELIVER: "src"}
#: The network's order of each message-row kind's data keys.
_NETWORK_KEYS = {
    kind: (peer_key, "kind", "channel", "id") for kind, peer_key in _PEER_KEYS.items()
}

#: Codes are unsigned shorts; a log that meets more distinct row shapes
#: keeps the rest as records.
_MAX_CODE = 0xFFFF


class RowCode(NamedTuple):
    """What one :attr:`TraceLog.order` code stands for: the fields every
    message row of that code shares."""

    #: ``msg-send`` or ``msg-deliver``.
    kind: str
    #: ``"dst"`` for a send, ``"src"`` for a delivery.
    peer_key: str
    #: The message's kind (its payload class) and channel.
    msg_kind: str
    channel: str
    #: The data's keys in the order the row was emitted with, or None
    #: for the network's order: peer, ``kind``, ``channel``, ``id``.
    keys: tuple[str, ...] | None

    def data(self, peer: int, msg_id: int) -> dict[str, Any]:
        """A fresh data dict of one row, keys in their emitted order."""
        values = {
            self.peer_key: peer,
            "kind": self.msg_kind,
            "channel": self.channel,
            "id": msg_id,
        }
        if self.keys is None:
            return values
        return {key: values[key] for key in self.keys}


class LogColumns(NamedTuple):
    """A :class:`TraceLog`'s records as the log holds them
    (:meth:`TraceLog.columns`): it pickles as the columns and the kept
    records, not as a record per row, and :meth:`Tracer.merge` reads it
    back."""

    order: array
    codes: list[RowCode | None]
    kept: list[TraceRecord]
    times: array
    pids: array
    peers: array
    ids: array


class TraceLog:
    """A tracer's records, in emission order.

    A *message row* — a ``msg-send`` or ``msg-deliver`` whose data is
    exactly the network's four fields (the int peer under ``dst``/``src``,
    the str ``kind`` and ``channel``, the int ``id``) at a float time from
    an int pid — is kept in typed columns, not as an object: its time, pid,
    peer and id in :attr:`times`, :attr:`pids`, :attr:`peers` and
    :attr:`ids`, and a code for the rest (:attr:`codes`) in :attr:`order`,
    which holds one entry per record.  Every other record is kept as it
    is, in :attr:`kept`, and has code 0.  Iterating, indexing or slicing
    rebuilds each message row as a :class:`TraceRecord` equal to the one
    emitted, with a fresh data dict each time; whole-trace readers
    (:mod:`repro.obs`) read the columns instead.  :attr:`loose` counts the
    msg-send/msg-deliver records that did not fit a row and were kept.

    ``fold`` holds what a reader derived from the whole log, for the next
    reader to take instead of folding it again (:mod:`repro.obs.causal`
    keeps its span and critical-path fold there).  The reader records the
    length it folded at and trusts the fold only while the log still has
    that length, which holds because records are only ever appended.
    :meth:`clear` drops the fold; a pickled or copied log carries its
    records only.  Readers must not mutate the columns or :attr:`kept`.
    """

    __slots__ = (
        "fold", "order", "kept", "codes", "loose",
        "times", "pids", "peers", "ids", "_book", "_network",
    )  # fmt: skip

    def __init__(self, records: Iterable[Any] = ()) -> None:
        self.fold: Any = None
        #: One code per record: 0 for a kept record, else a row's code.
        self.order = array("H")
        self.kept: list[TraceRecord] = []
        #: code -> :class:`RowCode` (code 0 is a kept record).
        self.codes: list[RowCode | None] = [None]
        self.loose = 0
        self.times = array("d")
        self.pids = array("i")
        self.peers = array("i")
        self.ids = array("q")
        #: (kind, message kind, channel, keys) -> code.
        self._book: dict[tuple, int] = {}
        #: kind -> message kind -> channel -> code, for rows whose keys
        #: are in the network's order (what :class:`RowWriter` writes).
        self._network: dict[str, dict[str, dict[str, int]]] = {
            kind: {} for kind in _PEER_KEYS
        }
        self.extend(records)

    # ----------------------------------------------------------------- writes

    def append(self, record: Any) -> None:
        """Add one ``(time, pid, kind, data)`` record (a
        :class:`TraceRecord` or any 4-sequence, such as a JSONL row)."""
        time, pid, kind, data = record
        if kind in _PEER_KEYS:
            if self._put(time, pid, kind, data):
                return
            self.loose += 1
        if type(record) is not TraceRecord:
            record = _new(TraceRecord, (time, pid, kind, data))
        self.order.append(0)
        self.kept.append(record)

    def extend(self, records: Iterable[Any]) -> None:
        for record in records:
            self.append(record)

    def _put(self, time: Any, pid: Any, kind: str, data: Any) -> bool:
        """Write one msg-send/msg-deliver as a row; False if it is not one."""
        if type(data) is not dict or len(data) != 4:
            return False
        peer = data.get(_PEER_KEYS[kind])
        msg_kind = data.get("kind")
        channel = data.get("channel")
        msg_id = data.get("id")
        if not (
            type(time) is float
            and time == time  # a NaN time would not read back equal
            and type(pid) is int
            and type(peer) is int
            and type(msg_id) is int
            and type(msg_kind) is str
            and type(channel) is str
        ):
            return False
        keys = tuple(data)
        if keys == _NETWORK_KEYS[kind]:
            keys = None
        code = self._book.get((kind, msg_kind, channel, keys))
        if code is None:
            code = self._register(RowCode(kind, _PEER_KEYS[kind], msg_kind, channel, keys))
            if code is None:
                return False
        return self._push(code, time, pid, peer, msg_id)

    def _register(self, row: RowCode) -> int | None:
        """A new code for ``row``; None once the codes are used up."""
        code = len(self.codes)
        if code > _MAX_CODE:
            return None
        self.codes.append(row)
        self._book[(row.kind, row.msg_kind, row.channel, row.keys)] = code
        if row.keys is None:
            self._network[row.kind].setdefault(row.msg_kind, {})[row.channel] = code
        return code

    def _push(self, code: int, time: float, pid: int, peer: int, msg_id: int) -> bool:
        """Append one row to the columns; False (and nothing written) when
        an int does not fit its column."""
        try:
            self.pids.append(pid)
            self.peers.append(peer)
            self.ids.append(msg_id)
        except OverflowError:
            self._trim()
            return False
        self.times.append(time)
        self.order.append(code)
        return True

    def _trim(self) -> None:
        """Undo a row's ints written before one overflowed (``ids`` is
        written last)."""
        rows = len(self.ids)
        del self.pids[rows:], self.peers[rows:]

    def clear(self) -> None:
        for column in (self.order, self.times, self.pids, self.peers, self.ids):
            del column[:]
        self.kept.clear()
        self.loose = 0
        self.fold = None

    # ------------------------------------------------------------------ reads

    def _records(self, start: int, stop: int) -> Iterator[TraceRecord]:
        """The records at positions ``start`` to ``stop``, in order."""
        order, codes = self.order, self.codes
        kept_before = order[:start].count(0) if start else 0
        kept = islice(self.kept, kept_before, None)
        rows = islice(
            zip(self.times, self.pids, self.peers, self.ids), start - kept_before, None
        )  # fmt: skip
        for code in islice(order, start, stop):
            if code:
                time, pid, peer, msg_id = next(rows)
                row = codes[code]
                yield _new(TraceRecord, (time, pid, row.kind, row.data(peer, msg_id)))
            else:
                yield next(kept)

    def columns(self) -> LogColumns:
        """The log's columns and kept records, shared, not copied."""
        return LogColumns(
            self.order, self.codes, self.kept, self.times, self.pids, self.peers, self.ids
        )  # fmt: skip

    def __iter__(self) -> Iterator[TraceRecord]:
        return self._records(0, len(self.order))

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, index: Any) -> Any:
        """A record, or a plain list of records for a slice."""
        positions = range(len(self.order))[index]
        if not isinstance(positions, range):
            return next(self._records(positions, positions + 1))
        if not positions:
            return []
        first = positions[0] if positions.step > 0 else positions[-1]
        window = list(self._records(first, first + abs(positions.step) * (len(positions) - 1) + 1))
        return [window[position - first] for position in positions]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, TraceLog)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))

    def __reduce__(self) -> tuple:
        return (TraceLog, (list(self),))


class RowWriter:
    """Writes one message-row kind of a :class:`Tracer` straight into its
    log's columns: the network calls :meth:`emit` with a row's fields, and
    no dict or record is built unless a subscriber needs one or the row
    does not fit the columns."""

    __slots__ = (
        "kind", "_tracer", "_subscribers", "_log", "_codes",
        "_order", "_times", "_pids", "_peers", "_ids",
    )  # fmt: skip

    def __init__(self, tracer: "Tracer", kind: str) -> None:
        self.kind = kind
        self._tracer = tracer
        self._subscribers = tracer._subscribers
        # The log's own columns: it clears them in place, never replaces them.
        log = self._log = tracer.records
        self._codes = log._network[kind]
        self._order, self._times = log.order, log.times
        self._pids, self._peers, self._ids = log.pids, log.peers, log.ids

    def emit(
        self, time: float, pid: int, peer: int, msg_kind: str, channel: str,
        msg_id: int,
    ) -> None:
        """Record one ``kind`` message row: ``peer`` is the destination of
        a send, the source of a delivery."""
        if (
            not self._subscribers
            and type(time) is float
            and type(pid) is int
            and type(peer) is int
            and type(msg_id) is int
            and time == time
        ):
            by_channel = self._codes.get(msg_kind)
            code = None if by_channel is None else by_channel.get(channel)
            if code is not None:
                # TraceLog._push, inlined: this runs once per message.
                try:
                    self._pids.append(pid)
                    self._peers.append(peer)
                    self._ids.append(msg_id)
                except OverflowError:
                    self._log._trim()
                else:
                    self._times.append(time)
                    self._order.append(code)
                    return
        record = _new(TraceRecord, (time, pid, self.kind, _row_dict(self.kind, peer, msg_kind, channel, msg_id)))
        self._log.append(record)
        for fn in self._subscribers:
            fn(record)


def _row_dict(kind: str, peer: Any, msg_kind: Any, channel: Any, msg_id: Any) -> dict[str, Any]:
    """A message row's data as the network emits it."""
    return {_PEER_KEYS[kind]: peer, "kind": msg_kind, "channel": channel, "id": msg_id}


class _CountingRowWriter(RowWriter):
    """A :class:`CountingTracer`'s row writer: it counts the row."""

    __slots__ = ()

    def emit(
        self, time: float, pid: int, peer: int, msg_kind: str, channel: str,
        msg_id: int,
    ) -> None:
        self._tracer.absorb(self.kind, time, 1)
        if self._subscribers:
            record = _new(TraceRecord, (time, pid, self.kind, _row_dict(self.kind, peer, msg_kind, channel, msg_id)))
            for fn in self._subscribers:
                fn(record)


class Tracer:
    """Collects :class:`TraceRecord` instances and notifies subscribers.

    ``emit`` only appends; the network writes its message rows through
    :attr:`sends` and :attr:`delivers` instead (:class:`RowWriter`).  The
    per-kind index behind the common queries (:meth:`of_kind`,
    :meth:`by_pid` with a kind, :meth:`counts`, :meth:`first`,
    :meth:`kinds`) is brought up to date when one of them runs, over the
    records emitted since the last query: a run queried once at its end
    indexes each record once, and pays nothing while it runs.
    """

    _writer = RowWriter

    def __init__(self) -> None:
        self.records = TraceLog()
        self._subscribers: list[Callable[[TraceRecord], None]] = []
        #: Records per kind, in first-seen kind order.
        self._counts: dict[str, int] = {}
        #: Kept records per kind; message kinds are not bucketed.
        self._by_kind: dict[str, list[TraceRecord]] = {}
        #: How many leading records, and kept records, the index covers.
        self._indexed = 0
        self._kept_indexed = 0
        #: The writers of the network's msg-send and msg-deliver rows.
        self.sends = self._writer(self, KINDS.MSG_SEND)
        self.delivers = self._writer(self, KINDS.MSG_DELIVER)

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

    def merge(self, logs: Iterable[LogColumns]) -> None:
        """Append the records of several logs, interleaved by (time, the
        log's position in ``logs``, the record's index in its log): message
        rows through :attr:`sends` and :attr:`delivers`, every other record
        through :meth:`emit`."""
        tagged: list[tuple] = []
        for position, log in enumerate(logs):
            kept = iter(log.kept)
            rows = zip(log.times, log.pids, log.peers, log.ids)
            codes = log.codes
            for index, code in enumerate(log.order):
                if code:
                    time, pid, peer, msg_id = next(rows)
                    tagged.append((time, position, index, pid, peer, msg_id, codes[code]))
                else:
                    record = next(kept)
                    tagged.append((record[0], position, index, record))
        # (time, position, index) is unique, so no comparison reaches a record.
        tagged.sort()
        emit = self.emit
        writers = {KINDS.MSG_SEND: self.sends.emit, KINDS.MSG_DELIVER: self.delivers.emit}
        for item in tagged:
            if len(item) == 4:
                emit(*item[3])
                continue
            time, _, _, pid, peer, msg_id, row = item
            if row.keys is None:
                writers[row.kind](time, pid, peer, row.msg_kind, row.channel, msg_id)
            else:  # data keys in another order than the network's: as appended
                emit(time, pid, row.kind, row.data(peer, msg_id))

    # ----------------------------------------------------------------- queries

    def _index(self) -> dict[str, int]:
        """Records per kind, extended over the records not yet counted."""
        log = self.records
        if self._indexed < len(log):
            counts, by_kind, codes, kept = self._counts, self._by_kind, log.codes, log.kept
            next_kept = self._kept_indexed
            for code in log.order[self._indexed:]:
                if code:
                    kind = codes[code].kind
                else:
                    record = kept[next_kept]
                    next_kept += 1
                    kind = record.kind
                    if kind not in _PEER_KEYS:
                        bucket = by_kind.get(kind)
                        if bucket is None:
                            by_kind[kind] = bucket = []
                        bucket.append(record)
                counts[kind] = counts.get(kind, 0) + 1
            self._kept_indexed = next_kept
            self._indexed = len(log)
        return self._counts

    def of_kind(self, kind: str) -> list[TraceRecord]:
        if kind in _PEER_KEYS:
            return [r for r in self.records if r.kind == kind]
        self._index()
        return list(self._by_kind.get(kind, ()))

    def by_pid(self, kind: str | None = None) -> dict[int, list[TraceRecord]]:
        source = self.records if kind is None else self.of_kind(kind)
        out: dict[int, list[TraceRecord]] = defaultdict(list)
        for r in source:
            out[r.pid].append(r)
        return dict(out)

    def first(self, kind: str) -> TraceRecord | None:
        if kind in _PEER_KEYS:
            return next((r for r in self.records if r.kind == kind), None)
        self._index()
        bucket = self._by_kind.get(kind)
        return bucket[0] if bucket else None

    def kinds(self) -> set[str]:
        return set(self._index())

    def counts(self) -> dict[str, int]:
        """Number of records per kind (in first-seen kind order)."""
        return dict(self._index())

    def filter(self, predicate: Callable[[TraceRecord], bool]) -> Iterable[TraceRecord]:
        return (r for r in self.records if predicate(r))

    def clear(self) -> None:
        self.records.clear()
        self._counts.clear()
        self._by_kind.clear()
        self._indexed = self._kept_indexed = 0


class CountingTracer(Tracer):
    """A tracer whose records nobody reads back: it counts, it stores none.

    ``execute_run`` builds one for every run it owns that has no obs knob
    set, because its report reads only :meth:`counts`.  Per kind it keeps the
    time of the first record and the number of records, in first-seen kind
    order, so :meth:`counts` is exactly what a recording :class:`Tracer`
    would answer.  Subscribers still get every record; every other query
    sees an empty trace.
    """

    _writer = _CountingRowWriter

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

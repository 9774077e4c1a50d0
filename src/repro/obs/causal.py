"""Causal message-flow graph and decision critical-path analysis.

PR 4's spans say *that* a consensus instance took two steps; this module
says *why*.  The network stamps every send with a network-wide sequence
number (``Network._msg_seq``) which observability exports inside the
``msg-send``/``msg-deliver`` trace data, so each delivery names its
originating send.  :class:`CausalGraph` collects those edges (from live
records or exported JSONL rows) and :func:`critical_path` walks them
backwards from a decision:

* the **gating hop** is the last message arriving at the decider before it
  decided — the last-arriving quorum message of the paper's step analysis;
* each earlier hop is the last arrival at the previous hop's sender before
  it sent — the latest-arrival chain, the standard Lamport-style critical
  path through the happened-before graph;
* the walk stops at the decider's propose time, so the hop chain spans
  propose → decide.

For fallback decisions (``steps > 1``) :func:`fallback_cause` names the
trace record that forced the extra step — the latest ``suspect`` /
``leader-change`` / ``net-partition`` / ``nemesis-start`` event visible to
the decider before its final round began — and maps it into the enclosing
nemesis op window, so a fuzzer repro's spans say *which op* broke the fast
path.  Everything here is read-only over an existing trace: building
graphs and paths never changes what a run emits.
"""

from __future__ import annotations

import copy
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, NamedTuple

from repro.obs.spans import ConsensusSpan, SpanBuilder
from repro.sim.trace import KINDS, TraceLog, TraceRecord, describe_value

__all__ = [
    "CausalGraph",
    "CriticalPath",
    "Hop",
    "annotate_spans",
    "causal_summary",
    "critical_path",
    "critical_paths",
    "fallback_cause",
]

#: Trace kinds that can force a consensus instance off the fast path.  A
#: ``nemesis-end`` (or ``net-heal``) restores service rather than breaking
#: it, so neither counts as a trigger — but nemesis windows still come from
#: the start records.
TRIGGER_KINDS = frozenset(
    {KINDS.SUSPECT, KINDS.LEADER_CHANGE, KINDS.NET_PARTITION, KINDS.NEMESIS_START}
)

#: Walk guard: no sane trace chains more hops than this between one propose
#: and one decide (rounds are O(1) messages deep per process).
MAX_HOPS = 128

#: Builds a named tuple from a tuple of its fields without the generated
#: ``__new__`` frame.
_new = tuple.__new__


class _Send(NamedTuple):
    """One ``msg-send`` record."""

    id: int
    time: float
    src: int
    dst: int
    kind: str
    channel: str


class _Deliver(NamedTuple):
    """One ``msg-deliver`` record."""

    id: int
    time: float
    dst: int
    src: int
    kind: str
    channel: str


@dataclass(frozen=True)
class Hop:
    """One send → deliver edge on a decision's critical path."""

    msg_id: int
    kind: str
    src: int
    dst: int
    sent_at: float
    delivered_at: float

    @property
    def flight_time(self) -> float:
        return self.delivered_at - self.sent_at

    def to_dict(self) -> dict[str, Any]:
        return {
            "msg_id": self.msg_id,
            "kind": self.kind,
            "src": self.src,
            "dst": self.dst,
            "sent_at": self.sent_at,
            "delivered_at": self.delivered_at,
        }


@dataclass
class CriticalPath:
    """The latest-arrival message chain behind one consensus decision."""

    pid: int
    instance: Any
    propose_at: float | None
    decided_at: float
    steps: int | None
    via: str | None
    #: Hops in causal order: ``hops[-1]`` is the gating (last-arriving)
    #: message at the decider; ``hops[0]`` is the chain's origin send.
    hops: list[Hop] = field(default_factory=list)
    #: :func:`fallback_cause` result for multi-step decisions, else None.
    cause: dict[str, Any] | None = None

    @property
    def latency(self) -> float | None:
        if self.propose_at is None:
            return None
        return self.decided_at - self.propose_at

    @property
    def gating(self) -> Hop | None:
        """The last-arriving message the decision waited on."""
        return self.hops[-1] if self.hops else None

    @property
    def network_time(self) -> float:
        """Virtual time the path spent on the wire (sum of hop flights)."""
        return sum(hop.flight_time for hop in self.hops)

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "instance": self.instance,
            "propose_at": self.propose_at,
            "decided_at": self.decided_at,
            "latency": self.latency,
            "steps": self.steps,
            "via": self.via,
            "hops": [hop.to_dict() for hop in self.hops],
            "network_time": self.network_time,
            "cause": self.cause,
        }


class CausalGraph:
    """Message-level causal edges plus the fault/FD records of one trace."""

    def __init__(self) -> None:
        #: msg id -> send event.
        self.sends: dict[int, _Send] = {}
        #: msg id -> deliver event (unicast: at most one per send).
        self.delivers: dict[int, _Deliver] = {}
        #: Deliveries with no matching send in the trace (truncated exports,
        #: hand-built envelopes with ``msg_id == -1``).
        self.orphan_delivers: list[_Deliver] = []
        #: Fallback-trigger candidates, in emission order.
        self.triggers: list[TraceRecord] = []
        #: ``nemesis-start`` data dicts, in emission order (each carries
        #: ``index``/``op``/``at``/``duration`` — the op's window).
        self.nemesis_ops: list[dict[str, Any]] = []
        #: pid -> chronologically sorted arrivals (built lazily).
        self._arrivals: dict[int, list[_Deliver]] | None = None
        self._arrival_times: dict[int, list[float]] = {}

    # ------------------------------------------------------------- ingestion

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "CausalGraph":
        """Build from records; any iterable but a :class:`TraceLog` is
        appended to one first.  A log whose message records are all rows
        gives a graph read from its columns (:class:`_LogGraph`), which
        shares the row arrays and arrival index of the graph in the log's
        current fold if it has one; any other log is built record by
        record, in emission order."""
        log = records if isinstance(records, TraceLog) else TraceLog(records)
        graph = _LogGraph.of(log)
        if graph is None:
            graph = cls()
            for time, pid, kind, data in log:
                graph.add(time, pid, kind, data)
        return graph

    @classmethod
    def from_rows(cls, rows: Iterable[list[Any]]) -> "CausalGraph":
        """Build from ``[time, pid, kind, data]`` rows of a JSONL export."""
        return cls.from_records(TraceLog(rows))

    def add(self, time: float, pid: int, kind: str, data: Any) -> None:
        if kind == KINDS.MSG_SEND:
            msg_id = data.get("id") if isinstance(data, dict) else None
            if isinstance(msg_id, int) and msg_id >= 0:
                self.sends[msg_id] = _new(_Send, (
                    msg_id, time, pid, data.get("dst", -1),
                    data.get("kind", "?"), data.get("channel", "?"),
                ))
        elif kind == KINDS.MSG_DELIVER:
            if isinstance(data, dict):
                msg_id = data.get("id")
                deliver = _new(_Deliver, (
                    msg_id if isinstance(msg_id, int) else -1,
                    time, pid, data.get("src", -1),
                    data.get("kind", "?"), data.get("channel", "?"),
                ))
            else:
                deliver = _Deliver(-1, time, pid, -1, "?", "?")
            if deliver.id >= 0 and deliver.id in self.sends:
                self.delivers[deliver.id] = deliver
            else:
                self.orphan_delivers.append(deliver)
            self._arrivals = None  # invalidate the lazy per-pid index
        elif kind in TRIGGER_KINDS:
            self.triggers.append(TraceRecord(time, pid, kind, data))
            if kind == KINDS.NEMESIS_START and isinstance(data, dict):
                self.nemesis_ops.append(data)

    # --------------------------------------------------------------- queries

    def _ensure_arrivals(self) -> dict[int, list[_Deliver]]:
        if self._arrivals is None:
            arrivals: dict[int, list[_Deliver]] = {}
            for deliver in self.delivers.values():
                arrivals.setdefault(deliver.dst, []).append(deliver)
            for bucket in arrivals.values():
                bucket.sort(key=lambda d: (d.time, d.id))
            self._arrivals = arrivals
            self._arrival_times = {
                pid: [d.time for d in bucket] for pid, bucket in arrivals.items()
            }
        return self._arrivals

    def last_arrival_before(self, pid: int, time: float) -> _Deliver | None:
        """Latest delivery at ``pid`` with arrival time <= ``time``."""
        arrivals = self._ensure_arrivals().get(pid)
        if not arrivals:
            return None
        index = bisect_right(self._arrival_times[pid], time)
        if index == 0:
            return None
        return arrivals[index - 1]

    def flows(self) -> list[tuple[_Send, _Deliver]]:
        """Matched (send, deliver) pairs, in msg-id order."""
        return [
            (self.sends[msg_id], self.delivers[msg_id])
            for msg_id in sorted(self.delivers)
        ]

    def send_of(self, msg_id: int) -> _Send | None:
        """The send of message ``msg_id``, if the trace has one."""
        return self.sends.get(msg_id)

    def flow_rows(self) -> Iterable[tuple[int, str, int, int, float, float]]:
        """Matched messages as ``(id, kind, src, dst, sent_at,
        delivered_at)``, in id order."""
        return [
            (send.id, send.kind, send.src, deliver.dst, send.time, deliver.time)
            for send, deliver in self.flows()
        ]

    @property
    def unmatched_sends(self) -> int:
        """Sends that were never delivered (dropped, blocked, or in flight)."""
        return len(self.sends) - len(self.delivers)

    @property
    def orphan_count(self) -> int:
        return len(self.orphan_delivers)


class _LogGraph(CausalGraph):
    """The causal graph of a :class:`TraceLog` whose message records are
    all rows, kept as row numbers into the log's columns.

    Two arrays indexed by message id hold the row of its send and of its
    matched delivery (-1 for none), so the graph holds no object per
    message; a send or delivery tuple is built only when a query returns
    one.  It answers every query as the graph built record by record
    would.  :attr:`sends`, :attr:`delivers` and :attr:`orphan_delivers` are
    built afresh on each read (the first two in id order), and message
    records cannot be added to it.
    """

    #: Message ids may run this far past the number of rows; a sparser log
    #: is built record by record instead.
    SLACK = 1024

    @classmethod
    def of(cls, log: TraceLog) -> "_LogGraph | None":
        """The graph of ``log``, or None when it does not fit this form."""
        if log.loose:
            return None
        fold = log.fold
        if fold is not None and fold.length == len(log) and type(fold.flows) is _LogFlows:
            return fold.flows._graph._share()
        top = max(log.ids, default=-1)
        if top >= 2 * len(log.ids) + cls.SLACK:
            return None
        return cls(log, top + 1)

    def __init__(self, log: TraceLog, size: int) -> None:
        self.triggers = []
        self.nemesis_ops = []
        # Kept records only add fault records; rows only message edges.
        for time, pid, kind, data in log.kept:
            self.add(time, pid, kind, data)
        self._times, self._pids, self._peers, self._ids = (
            log.times, log.pids, log.peers, log.ids
        )  # fmt: skip
        #: Each row's code, and what each code is.
        self._codes = array("H", filter(None, log.order))
        self._rows = log.codes
        self._send_row = send_row = array("q", [-1]) * size
        self._deliver_row = deliver_row = array("q", [-1]) * size
        self._orphan_rows = array("q")
        is_send = [row is not None and row.kind == KINDS.MSG_SEND for row in log.codes]
        for index, (code, msg_id) in enumerate(zip(self._codes, self._ids)):
            if is_send[code]:
                if msg_id >= 0:
                    send_row[msg_id] = index
            elif msg_id >= 0 and send_row[msg_id] >= 0:
                deliver_row[msg_id] = index
            else:
                self._orphan_rows.append(index)
        self._arrival_rows: dict[int, array] | None = None
        self._arrival_times = {}

    def _share(self) -> "_LogGraph":
        """A graph of the same log that shares this one's arrays and
        arrival index, with copies of its fault-record lists."""
        graph = copy.copy(self)
        graph.triggers = list(self.triggers)
        graph.nemesis_ops = list(self.nemesis_ops)
        return graph

    def add(self, time: float, pid: int, kind: str, data: Any) -> None:
        if kind in (KINDS.MSG_SEND, KINDS.MSG_DELIVER):
            raise TypeError("a graph read from a trace log takes no message records")
        super().add(time, pid, kind, data)

    def _edge(self, edge: type, index: int) -> Any:
        """Row ``index`` as a :class:`_Send` or :class:`_Deliver`: both are
        ``(id, time, pid, peer, kind, channel)``."""
        row = self._rows[self._codes[index]]
        return _new(edge, (
            self._ids[index], self._times[index], self._pids[index],
            self._peers[index], row.msg_kind, row.channel,
        ))  # fmt: skip

    def _send(self, index: int) -> _Send:
        return self._edge(_Send, index)

    def _deliver(self, index: int) -> _Deliver:
        return self._edge(_Deliver, index)

    @property
    def sends(self) -> dict[int, _Send]:  # type: ignore[override]
        return {
            msg_id: self._send(index)
            for msg_id, index in enumerate(self._send_row) if index >= 0
        }  # fmt: skip

    @property
    def delivers(self) -> dict[int, _Deliver]:  # type: ignore[override]
        return {
            msg_id: self._deliver(index)
            for msg_id, index in enumerate(self._deliver_row) if index >= 0
        }  # fmt: skip

    @property
    def orphan_delivers(self) -> list[_Deliver]:  # type: ignore[override]
        return [self._deliver(index) for index in self._orphan_rows]

    def last_arrival_before(self, pid: int, time: float) -> _Deliver | None:
        if self._arrival_rows is None:
            # Rows in id order, then a stable sort by time: (time, id) order.
            by_pid: dict[int, list[int]] = {}
            pids = self._pids
            for index in self._deliver_row:
                if index >= 0:
                    by_pid.setdefault(pids[index], []).append(index)
            times = self._times
            arrival_rows, arrival_times = {}, {}
            for dst, rows in by_pid.items():
                rows.sort(key=times.__getitem__)
                arrival_rows[dst] = array("q", rows)
                arrival_times[dst] = array("d", map(times.__getitem__, rows))
            # New dicts, never filled in place: a shared graph may hold the
            # old ones.
            self._arrival_rows, self._arrival_times = arrival_rows, arrival_times
        arrival_times = self._arrival_times.get(pid)
        if not arrival_times:
            return None
        index = bisect_right(arrival_times, time)
        if index == 0:
            return None
        return self._deliver(self._arrival_rows[pid][index - 1])

    def send_of(self, msg_id: int) -> _Send | None:
        if 0 <= msg_id < len(self._send_row):
            index = self._send_row[msg_id]
            if index >= 0:
                return self._send(index)
        return None

    def flows(self) -> list[tuple[_Send, _Deliver]]:
        return [
            (self._send(self._send_row[msg_id]), self._deliver(index))
            for msg_id, index in enumerate(self._deliver_row) if index >= 0
        ]  # fmt: skip

    def flow_rows(self) -> "_LogFlows":
        return _LogFlows(self)

    @property
    def unmatched_sends(self) -> int:
        return (
            len(self._send_row) - self._send_row.count(-1)
            - (len(self._deliver_row) - self._deliver_row.count(-1))
        )  # fmt: skip

    @property
    def orphan_count(self) -> int:
        return len(self._orphan_rows)


class _LogFlows:
    """:meth:`_LogGraph.flow_rows`: the matched messages, read from the
    graph's arrays each time it is iterated."""

    __slots__ = ("_graph",)

    def __init__(self, graph: _LogGraph) -> None:
        self._graph = graph

    def __iter__(self) -> Iterator[tuple[int, str, int, int, float, float]]:
        graph = self._graph
        send_row, codes, rows = graph._send_row, graph._codes, graph._rows
        times, pids = graph._times, graph._pids
        for msg_id, index in enumerate(graph._deliver_row):
            if index >= 0:
                send = send_row[msg_id]
                yield (
                    msg_id, rows[codes[send]].msg_kind, pids[send], pids[index],
                    times[send], times[index],
                )  # fmt: skip


def critical_path(
    span: ConsensusSpan, graph: CausalGraph, max_hops: int = MAX_HOPS
) -> CriticalPath | None:
    """The latest-arrival chain from ``span``'s propose to its decision.

    Returns ``None`` for undecided spans.  A decided span with no resolvable
    arrivals yields an empty-hops path (callers — and ``trace critical-path
    --strict`` — can treat that as a gap in the trace).
    """
    if span.decided_at is None:
        return None
    path = CriticalPath(
        pid=span.pid,
        instance=span.instance,
        propose_at=span.propose_at,
        decided_at=span.decided_at,
        steps=span.steps,
        via=span.via,
    )
    propose_at = span.propose_at if span.propose_at is not None else float("-inf")
    cursor_pid = span.pid
    cursor_time = span.decided_at
    hops_reversed: list[Hop] = []
    last_deliver: _Deliver | None = None
    while len(hops_reversed) < max_hops and cursor_time > propose_at:
        deliver = graph.last_arrival_before(cursor_pid, cursor_time)
        # Equal deliveries are one delivery: a graph keeps one per id.
        if deliver is None or deliver == last_deliver:
            break
        send = graph.send_of(deliver.id)
        if send is None:  # defensive: delivers are only indexed with a send
            break
        hops_reversed.append(
            Hop(send.id, send.kind, send.src, deliver.dst, send.time, deliver.time)
        )
        last_deliver = deliver
        cursor_pid = send.src
        cursor_time = send.time
    path.hops = list(reversed(hops_reversed))
    if span.steps is not None and span.steps > 1:
        path.cause = fallback_cause(span, graph)
    return path


def fallback_cause(span: ConsensusSpan, graph: CausalGraph) -> dict[str, Any] | None:
    """Name the record that forced ``span`` off the fast path.

    The proximate trigger is the latest ``suspect`` / ``leader-change`` /
    ``net-partition`` / ``nemesis-start`` record emitted at the decider (or
    at pid -1 — god's-eye fault records) no later than the start of the
    span's final round.  When a nemesis schedule is attached, the trigger is
    mapped into the enclosing op window ``[at, at + duration]`` so the
    *scheduled op* (e.g. the partition) is named as the root cause even when
    the proximate trigger is the suspicion it provoked.
    """
    if span.rounds:
        deadline = span.rounds[-1][2]
    elif span.decided_at is not None:
        deadline = span.decided_at
    else:
        return None
    trigger: TraceRecord | None = None
    for record in graph.triggers:  # emission order; keep the latest eligible
        if record.time > deadline:
            continue
        if record.pid != span.pid and record.pid != -1:
            continue
        if trigger is None or record.time >= trigger.time:
            trigger = record
    if trigger is None:
        return None
    cause: dict[str, Any] = {
        "kind": trigger.kind,
        "time": trigger.time,
        "pid": trigger.pid,
        "data": describe_value(trigger.data),
    }
    op = _enclosing_op(graph.nemesis_ops, trigger.time)
    if op is not None:
        cause["op"] = describe_value({k: v for k, v in op.items() if k != "index"})
        cause["op_index"] = op.get("index")
    return cause


def _enclosing_op(ops: list[dict[str, Any]], time: float) -> dict[str, Any] | None:
    """The nemesis op whose ``[at, at + duration]`` window covers ``time``.

    Prefers the latest-starting containing window; falls back to the latest
    op that started before ``time`` (a suspicion often lands just after a
    short op's window closes).
    """
    containing: dict[str, Any] | None = None
    started_before: dict[str, Any] | None = None
    for op in ops:
        at = op.get("at")
        if not isinstance(at, (int, float)) or at > time:
            continue
        duration = op.get("duration")
        end = at + duration if isinstance(duration, (int, float)) else at
        if started_before is None or at >= started_before.get("at", 0.0):
            started_before = op
        if time <= end and (containing is None or at >= containing.get("at", 0.0)):
            containing = op
    return containing if containing is not None else started_before


def critical_paths(
    builder: SpanBuilder, graph: CausalGraph, max_hops: int = MAX_HOPS
) -> list[CriticalPath]:
    """Critical paths of every decided consensus span, in span order."""
    paths = []
    for span in builder.consensus_spans():
        path = critical_path(span, graph, max_hops=max_hops)
        if path is not None:
            paths.append(path)
    return paths


def annotate_spans(builder: SpanBuilder, graph: CausalGraph) -> SpanBuilder:
    """Attach :func:`fallback_cause` onto every multi-step consensus span."""
    for span in builder.consensus_spans():
        if span.decided and span.steps is not None and span.steps > 1:
            span.fallback_cause = fallback_cause(span, graph)
    return builder


def _ingest(log: TraceLog) -> tuple[SpanBuilder, CausalGraph]:
    """The span builder and the causal graph of one log."""
    return SpanBuilder().add_records(log), CausalGraph.from_records(log)


class _Fold(NamedTuple):
    """What the warehouse entry and the Chrome export read of one trace."""

    #: Length of the :class:`TraceLog` folded: a kept fold is stale once
    #: the log is longer.
    length: int
    builder: SpanBuilder
    #: :func:`critical_paths`, in span order.
    paths: list[CriticalPath]
    #: :meth:`CausalGraph.flow_rows`: matched messages as ``(id, kind,
    #: src, dst, sent_at, delivered_at)``, in id order.
    flows: Iterable[tuple[int, str, int, int, float, float]]
    unmatched_sends: int
    orphan_delivers: int


def _fold(events: Iterable[tuple[float, int, str, Any]]) -> _Fold:
    """Spans, critical paths and message flows of one trace.

    The fold of a :class:`TraceLog` is kept on it and reused while the log
    has the length it was folded at; any other iterable is appended to a
    fresh log and folded each time.  Of the causal graph the fold keeps
    the flows and two counts, all its readers take from it (a graph read
    from the log's columns stays behind its flows, which it reads lazily).
    """
    log = events if isinstance(events, TraceLog) else TraceLog(events)
    kept = log.fold
    if kept is not None and kept.length == len(log):
        return kept
    builder, graph = _ingest(log)
    fold = _Fold(
        len(log),
        builder,
        critical_paths(builder, graph),
        graph.flow_rows(),
        graph.unmatched_sends,
        graph.orphan_count,
    )
    log.fold = fold
    return fold


def causal_summary(rows: Iterable[list[Any]]) -> dict[str, Any]:
    """Aggregate critical-path statistics of one exported trace.

    The warehouse stores this per run: path counts, hop depth, how much of
    the decision latency was wire time, and a histogram of fallback-cause
    kinds (``op:<kind>`` when a nemesis op was attributed).
    """
    return _path_summary(_fold(rows))


def _path_summary(fold: _Fold) -> dict[str, Any]:
    """:func:`causal_summary` of an already-folded trace."""
    paths = fold.paths
    latencies = [p.latency for p in paths if p.latency is not None]
    causes: dict[str, int] = {}
    for path in paths:
        if path.cause is None:
            continue
        op = path.cause.get("op")
        label = f"op:{op['op']}" if isinstance(op, dict) and "op" in op else path.cause["kind"]
        causes[label] = causes.get(label, 0) + 1
    summary: dict[str, Any] = {
        "paths": len(paths),
        "resolved": sum(1 for p in paths if p.hops),
        "max_hops": max((len(p.hops) for p in paths), default=0),
        "mean_hops": (
            sum(len(p.hops) for p in paths) / len(paths) if paths else 0.0
        ),
        "causes": dict(sorted(causes.items())),
        "unmatched_sends": fold.unmatched_sends,
        "orphan_delivers": fold.orphan_delivers,
    }
    if latencies:
        summary["mean_latency"] = sum(latencies) / len(latencies)
        summary["max_latency"] = max(latencies)
        network = [p.network_time for p in paths if p.latency is not None]
        summary["mean_network_time"] = sum(network) / len(network)
    return summary

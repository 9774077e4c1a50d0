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

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple

from repro.obs.spans import ConsensusSpan, SpanBuilder
from repro.sim.trace import KINDS, TraceRecord, describe_value

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
        """Build from live records, which have the shape of rows."""
        return cls.from_rows(records)

    @classmethod
    def from_rows(cls, rows: Iterable[list[Any]]) -> "CausalGraph":
        """Build from ``[time, pid, kind, data]`` rows of a JSONL export."""
        graph = cls()
        for time, pid, kind, data in rows:
            graph.add(time, pid, kind, data)
        return graph

    def add(self, time: float, pid: int, kind: str, data: Any) -> None:
        if kind == KINDS.MSG_SEND:
            msg_id = data.get("id") if isinstance(data, dict) else None
            if isinstance(msg_id, int) and msg_id >= 0:
                self.sends[msg_id] = _Send(
                    msg_id, time, pid, data.get("dst", -1),
                    data.get("kind", "?"), data.get("channel", "?"),
                )
        elif kind == KINDS.MSG_DELIVER:
            if isinstance(data, dict):
                msg_id = data.get("id")
                deliver = _Deliver(
                    msg_id if isinstance(msg_id, int) else -1,
                    time, pid, data.get("src", -1),
                    data.get("kind", "?"), data.get("channel", "?"),
                )
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

    @property
    def unmatched_sends(self) -> int:
        """Sends that were never delivered (dropped, blocked, or in flight)."""
        return len(self.sends) - len(self.delivers)


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
        if deliver is None or deliver is last_deliver:
            break
        send = graph.sends.get(deliver.id)
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


def _ingest(
    events: Iterable[tuple[float, int, str, Any]],
) -> tuple[SpanBuilder, CausalGraph]:
    """Fold one pass over ``(time, pid, kind, data)`` events into both the
    span builder and the causal graph."""
    builder = SpanBuilder()
    graph = CausalGraph()
    add_span, add_edge = builder.add, graph.add
    for time, pid, kind, data in events:
        add_span(time, pid, kind, data)
        add_edge(time, pid, kind, data)
    return builder, graph


def causal_summary(rows: Iterable[list[Any]]) -> dict[str, Any]:
    """Aggregate critical-path statistics of one exported trace.

    The warehouse stores this per run: path counts, hop depth, how much of
    the decision latency was wire time, and a histogram of fallback-cause
    kinds (``op:<kind>`` when a nemesis op was attributed).
    """
    return _path_summary(*_ingest(rows))


def _path_summary(builder: SpanBuilder, graph: CausalGraph) -> dict[str, Any]:
    """:func:`causal_summary` over an already-ingested trace."""
    paths = critical_paths(builder, graph)
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
        "unmatched_sends": graph.unmatched_sends,
        "orphan_delivers": len(graph.orphan_delivers),
    }
    if latencies:
        summary["mean_latency"] = sum(latencies) / len(latencies)
        summary["max_latency"] = max(latencies)
        network = [p.network_time for p in paths if p.latency is not None]
        summary["mean_network_time"] = sum(network) / len(network)
    return summary

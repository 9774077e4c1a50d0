"""Causal spans reconstructed from trace records.

The flat trace stream answers "what happened when"; spans answer "how did
this decision come about".  Two span families:

* :class:`ConsensusSpan` — one consensus instance at one process:
  propose → round/phase transitions → decide (or undecided at end of run),
  with a per-phase virtual-time breakdown.  "Decided in 1 step via the fast
  path" is a field, not a test assertion.
* :class:`BroadcastSpan` — one application message: a-broadcast at its
  origin → a-deliver fan-out across processes, with first/last delivery
  latency.
* :class:`TxnSpan` — one cross-shard transaction: txn-begin at the
  coordinator → per-shard prepare votes → the replicated decision →
  txn-end, so 2PC behaviour (who voted what, where the time went) is
  inspectable per transaction.

:class:`SpanBuilder` consumes either live :class:`~repro.sim.trace.TraceRecord`
objects or rows loaded from a JSONL export (``[time, pid, kind, data]``
lists), so the CLI can build spans from a file without replaying the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.metrics import _percentile
from repro.sim.trace import KINDS, TraceRecord

__all__ = ["BroadcastSpan", "ConsensusSpan", "SpanBuilder", "TxnSpan"]


def _latency_stats(values: list[float]) -> dict[str, Any]:
    """Latency statistics in the :meth:`MetricsRegistry.histogram_summary`
    vocabulary (count/min/max/mean/p50/p95/p99), so span summaries and
    metrics histograms read the same."""
    ordered = sorted(values)
    if not ordered:
        return {"count": 0}
    return {
        "count": len(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
        "p50": _percentile(ordered, 0.50),
        "p95": _percentile(ordered, 0.95),
        "p99": _percentile(ordered, 0.99),
    }


def _canonical_id(value: Any) -> Any:
    """Hashable, export-stable identity for message ids and instances."""
    if isinstance(value, list):
        return tuple(_canonical_id(v) for v in value)
    if isinstance(value, tuple):
        return tuple(_canonical_id(v) for v in value)
    return value


@dataclass
class ConsensusSpan:
    """One consensus instance observed at one process."""

    pid: int
    instance: Any = None
    propose_at: float | None = None
    proposed_value: Any = None
    #: ``(round, phase-or-None, start-time)`` in emission order.
    rounds: list[tuple[int, str | None, float]] = field(default_factory=list)
    decided_at: float | None = None
    decided_value: Any = None
    steps: int | None = None
    via: str | None = None
    outcome: str | None = None
    #: :func:`repro.obs.causal.fallback_cause` annotation — the trace record
    #: (and enclosing nemesis op, if any) that forced a multi-step decision.
    #: Attached by :func:`repro.obs.causal.annotate_spans`, never by the
    #: builder itself, so plain span reconstruction stays unchanged.
    fallback_cause: dict[str, Any] | None = None

    @property
    def decided(self) -> bool:
        return self.decided_at is not None

    @property
    def decision_latency(self) -> float | None:
        """Virtual time from propose to decide (None while undecided)."""
        if self.decided_at is None or self.propose_at is None:
            return None
        return self.decided_at - self.propose_at

    @property
    def fast_path(self) -> bool:
        """True when the instance decided in a single communication step."""
        return self.decided and self.steps == 1

    @property
    def max_round(self) -> int:
        return max((r for r, _, _ in self.rounds), default=0)

    def phase_breakdown(self) -> list[dict[str, Any]]:
        """Virtual-time spent in each round/phase, in order.

        Each entry covers from that round/phase's start to the next
        transition (or the decision, for the final one).
        """
        out: list[dict[str, Any]] = []
        for i, (round_no, phase, start) in enumerate(self.rounds):
            if i + 1 < len(self.rounds):
                end = self.rounds[i + 1][2]
            else:
                end = self.decided_at if self.decided_at is not None else start
            entry: dict[str, Any] = {"round": round_no, "start": start, "duration": end - start}
            if phase is not None:
                entry["phase"] = phase
            out.append(entry)
        return out

    def to_dict(self) -> dict[str, Any]:
        data = {
            "pid": self.pid,
            "instance": self.instance,
            "propose_at": self.propose_at,
            "proposed_value": self.proposed_value,
            "phases": self.phase_breakdown(),
            "decided_at": self.decided_at,
            "decided_value": self.decided_value,
            "steps": self.steps,
            "via": self.via,
            "outcome": self.outcome,
            "fast_path": self.fast_path,
        }
        # Only annotated spans grow the key: un-annotated dicts (and every
        # pre-causal consumer of them) stay byte-identical.
        if self.fallback_cause is not None:
            data["fallback_cause"] = self.fallback_cause
        return data


@dataclass
class BroadcastSpan:
    """One a-broadcast message and its delivery fan-out."""

    msg_id: Any
    origin: int | None = None
    sent_at: float | None = None
    #: pid -> delivery time (first delivery per pid).
    deliveries: dict[int, float] = field(default_factory=dict)

    @property
    def first_delivery(self) -> float | None:
        return min(self.deliveries.values()) if self.deliveries else None

    @property
    def last_delivery(self) -> float | None:
        return max(self.deliveries.values()) if self.deliveries else None

    @property
    def latency(self) -> float | None:
        """Virtual time from broadcast to first delivery anywhere."""
        if self.sent_at is None or not self.deliveries:
            return None
        return self.first_delivery - self.sent_at

    def to_dict(self) -> dict[str, Any]:
        return {
            "msg_id": list(self.msg_id) if isinstance(self.msg_id, tuple) else self.msg_id,
            "origin": self.origin,
            "sent_at": self.sent_at,
            "deliveries": {str(pid): t for pid, t in sorted(self.deliveries.items())},
            "latency": self.latency,
        }


@dataclass
class TxnSpan:
    """One cross-shard transaction observed through its 2PC lifecycle."""

    txid: Any
    coordinator_pid: int | None = None
    begin_at: float | None = None
    shards: list[int] = field(default_factory=list)
    #: shard -> prepare vote ("yes" / "conflict").
    votes: dict[int, str] = field(default_factory=dict)
    #: shard -> vote arrival time.
    vote_at: dict[int, float] = field(default_factory=dict)
    decision: str | None = None
    decided_at: float | None = None
    end_at: float | None = None

    @property
    def finished(self) -> bool:
        return self.end_at is not None

    @property
    def committed(self) -> bool:
        return self.decision == "commit"

    @property
    def duration(self) -> float | None:
        """Virtual time from txn-begin to txn-end (None while in flight)."""
        if self.begin_at is None or self.end_at is None:
            return None
        return self.end_at - self.begin_at

    def to_dict(self) -> dict[str, Any]:
        return {
            "txid": self.txid,
            "coordinator_pid": self.coordinator_pid,
            "begin_at": self.begin_at,
            "shards": list(self.shards),
            "votes": {str(shard): vote for shard, vote in sorted(self.votes.items())},
            "decision": self.decision,
            "decided_at": self.decided_at,
            "end_at": self.end_at,
            "duration": self.duration,
        }


class SpanBuilder:
    """Folds a trace (records or exported rows) into causal spans."""

    def __init__(self) -> None:
        #: (pid, instance) -> span
        self.consensus: dict[tuple[int, Any], ConsensusSpan] = {}
        #: msg_id -> span
        self.broadcasts: dict[Any, BroadcastSpan] = {}
        #: txid -> span
        self.txns: dict[Any, TxnSpan] = {}

    # ------------------------------------------------------------- ingestion

    def add_records(self, records: Iterable[TraceRecord]) -> "SpanBuilder":
        """Ingest live records, which have the shape of rows."""
        return self.add_rows(records)

    def add_rows(self, rows: Iterable[list[Any]]) -> "SpanBuilder":
        """Ingest ``[time, pid, kind, data]`` rows from a JSONL export."""
        for time, pid, kind, data in rows:
            self.add(time, pid, kind, data)
        return self

    def _consensus_span(self, pid: int, instance: Any) -> ConsensusSpan:
        key = (pid, _canonical_id(instance))
        span = self.consensus.get(key)
        if span is None:
            self.consensus[key] = span = ConsensusSpan(pid=pid, instance=key[1])
        return span

    def add(self, time: float, pid: int, kind: str, data: Any) -> None:
        # One lookup skips the kinds no span is built from — the
        # msg-send/msg-deliver bulk of an observed trace.
        handler = self._HANDLERS.get(kind)
        if handler is not None:
            handler(self, time, pid, data)

    def _on_propose(self, time: float, pid: int, data: Any) -> None:
        span = self._consensus_span(pid, data.get("instance"))
        span.propose_at = time
        span.proposed_value = data.get("value")

    def _on_round_start(self, time: float, pid: int, data: Any) -> None:
        span = self._consensus_span(pid, data.get("instance"))
        span.rounds.append((data["round"], data.get("phase"), time))

    def _on_round_end(self, time: float, pid: int, data: Any) -> None:
        span = self._consensus_span(pid, data.get("instance"))
        span.decided_at = time
        span.decided_value = data.get("value")
        span.steps = data.get("steps")
        span.via = data.get("via")
        span.outcome = data.get("outcome")

    def _broadcast_span(self, data: Any) -> BroadcastSpan:
        msg_id = _canonical_id(data)
        span = self.broadcasts.get(msg_id)
        if span is None:
            self.broadcasts[msg_id] = span = BroadcastSpan(msg_id=msg_id)
        return span

    def _on_broadcast(self, time: float, pid: int, data: Any) -> None:
        span = self._broadcast_span(data)
        span.sent_at = time
        span.origin = pid

    def _on_deliver(self, time: float, pid: int, data: Any) -> None:
        self._broadcast_span(data).deliveries.setdefault(pid, time)

    def _txn_span(self, txid: Any) -> TxnSpan:
        span = self.txns.get(txid)
        if span is None:
            self.txns[txid] = span = TxnSpan(txid=txid)
        return span

    def _on_txn_begin(self, time: float, pid: int, data: Any) -> None:
        span = self._txn_span(data["txid"])
        span.begin_at = time
        span.coordinator_pid = pid
        span.shards = list(data.get("shards", ()))

    def _on_txn_vote(self, time: float, pid: int, data: Any) -> None:
        span = self._txn_span(data["txid"])
        span.votes[data["shard"]] = data["vote"]
        span.vote_at[data["shard"]] = time

    def _on_txn_decide(self, time: float, pid: int, data: Any) -> None:
        span = self._txn_span(data["txid"])
        span.decision = data["decision"]
        span.decided_at = time

    def _on_txn_end(self, time: float, pid: int, data: Any) -> None:
        span = self._txn_span(data["txid"])
        span.decision = data["decision"]
        span.end_at = time

    _HANDLERS = {
        KINDS.PROPOSE: _on_propose,
        KINDS.ROUND_START: _on_round_start,
        KINDS.ROUND_END: _on_round_end,
        KINDS.A_BROADCAST: _on_broadcast,
        KINDS.A_DELIVER: _on_deliver,
        KINDS.TXN_BEGIN: _on_txn_begin,
        KINDS.TXN_VOTE: _on_txn_vote,
        KINDS.TXN_DECIDE: _on_txn_decide,
        KINDS.TXN_END: _on_txn_end,
    }

    # --------------------------------------------------------------- queries

    def consensus_spans(self) -> list[ConsensusSpan]:
        return [self.consensus[key] for key in sorted(self.consensus, key=repr)]

    def broadcast_spans(self) -> list[BroadcastSpan]:
        return [self.broadcasts[key] for key in sorted(self.broadcasts, key=repr)]

    def txn_spans(self) -> list[TxnSpan]:
        return [self.txns[key] for key in sorted(self.txns, key=repr)]

    def summary(self) -> dict[str, Any]:
        """Aggregate span statistics for reporting and assertions."""
        spans = self.consensus_spans()
        decided = [s for s in spans if s.decided]
        steps_hist: dict[str, int] = {}
        for s in decided:
            key = str(s.steps)
            steps_hist[key] = steps_hist.get(key, 0) + 1
        bspans = [s for s in self.broadcast_spans() if s.latency is not None]
        latencies = sorted(s.latency for s in bspans)
        broadcast_stats: dict[str, Any] = {"count": len(self.broadcasts)}
        if latencies:
            broadcast_stats.update(
                {
                    "delivered": len(latencies),
                    "min_latency": latencies[0],
                    "max_latency": latencies[-1],
                    "mean_latency": sum(latencies) / len(latencies),
                }
            )
        # Decision latency (propose -> decide) bucketed by decision path:
        # the paper's claim is precisely that fast_path stays one δ while
        # fallbacks pay extra steps, so the percentiles are kept per bucket.
        by_path: dict[str, list[float]] = {}
        for s in decided:
            latency = s.decision_latency
            if latency is None:
                continue
            if s.outcome == "forward":
                bucket = "forwarded"
            elif s.fast_path:
                bucket = "fast_path"
            else:
                bucket = "fallback"
            by_path.setdefault(bucket, []).append(latency)
        txn_spans = self.txn_spans()
        return {
            "instances": len(spans),
            "decided": len(decided),
            "fast_path": sum(1 for s in decided if s.fast_path),
            "forwarded": sum(1 for s in decided if s.outcome == "forward"),
            "decision_latency": {
                bucket: _latency_stats(values)
                for bucket, values in sorted(by_path.items())
            },
            "steps_histogram": dict(sorted(steps_hist.items())),
            "max_round": max((s.max_round for s in spans), default=0),
            "broadcasts": broadcast_stats,
            "txns": {
                "count": len(txn_spans),
                "committed": sum(1 for s in txn_spans if s.finished and s.committed),
                "aborted": sum(
                    1 for s in txn_spans if s.finished and not s.committed
                ),
                "unfinished": sum(1 for s in txn_spans if not s.finished),
            },
        }

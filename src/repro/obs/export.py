"""Trace export (JSONL, Chrome trace-event) and first-divergence diff.

JSONL format (``repro.trace.v1``): a header object followed by one compact
``[time, pid, kind, data]`` array per record.  All JSON is dumped with
sorted keys and no whitespace variation, so same-seed runs export
byte-identical files — which is what makes :func:`diff_traces` a determinism
regression tool rather than just a curiosity.

Chrome trace-event format: the ``{"traceEvents": [...]}`` JSON that
``chrome://tracing`` and https://ui.perfetto.dev load directly.  Simulated
processes map to tracks (one pid each), individual trace records to instant
events, and reconstructed consensus spans to duration (``X``) events, so a
run's fast-path/fallback structure is visible on a timeline.  When the
trace carries message ids (msg-send/msg-deliver under obs), each matched
send → deliver pair additionally becomes a **flow event** pair (``s``/``f``
arrows between tracks) and every decided instance gets its causal critical
path rendered: one ``critical-path`` duration on the decider's track plus a
``cp:`` duration per hop spanning the hop's flight time on the receiving
track.
"""

from __future__ import annotations

import json
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator, TextIO

from repro.errors import ConfigurationError
from repro.obs.causal import _fold
from repro.sim.trace import KINDS, TraceLog, TraceRecord, describe_value, row_data

__all__ = [
    "TRACE_SCHEMA",
    "diff_traces",
    "export_chrome",
    "export_jsonl",
    "load_trace",
    "record_rows",
]

TRACE_SCHEMA = "repro.trace.v1"

_MICROS = 1e6  # trace-event timestamps are microseconds

#: Events per write in :func:`export_chrome` (~0.5 MB of output).
_CHUNK = 4096


def record_rows(records: Iterable[TraceRecord]) -> list[list[Any]]:
    """Records as JSON-safe ``[time, pid, kind, data]`` rows (see
    :func:`~repro.sim.trace.row_data`: a row may share its data with the
    record)."""
    return [
        [time, pid, kind, row_data(kind, data)] for time, pid, kind, data in records
    ]


def export_jsonl(
    records: Iterable[TraceRecord], out: TextIO, spec: dict[str, Any] | None = None
) -> int:
    """Write the JSONL export; returns the number of records written."""
    rows = record_rows(records)
    header: dict[str, Any] = {"records": len(rows), "schema": TRACE_SCHEMA}
    if spec is not None:
        header["spec"] = spec
    out.write(json.dumps(header, sort_keys=True, separators=(",", ":")))
    out.write("\n")
    for row in rows:
        out.write(json.dumps(row, sort_keys=True, separators=(",", ":")))
        out.write("\n")
    return len(rows)


def load_trace(path: str) -> tuple[dict[str, Any], list[list[Any]]]:
    """Load a JSONL export; returns ``(header, rows)``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ConfigurationError(f"{path}: empty trace file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
        raise ConfigurationError(
            f"{path}: not a {TRACE_SCHEMA} trace (header: {lines[0][:80]!r})"
        )
    rows = [json.loads(line) for line in lines[1:]]
    return header, rows


def export_chrome(
    records: Iterable[TraceRecord], out: TextIO, spec: dict[str, Any] | None = None
) -> int:
    """Write a Chrome trace-event / Perfetto JSON file.

    Mapping: the whole run is one trace-event "process"; each simulated pid
    becomes a thread (track).  Every trace record is an instant (``i``)
    event on its pid's track; reconstructed consensus spans become duration
    (``X``) events from propose to decide.

    ``spec`` is accepted only so the two writers share a signature and is
    **not written**: the trace-event format has no header to carry it.  Use
    :func:`export_jsonl` when the file must name the spec that produced it.

    The bytes are those of ``json.dumps(document, sort_keys=True,
    separators=(",", ":"))`` plus a newline.  The document frame is written
    by hand, and each event becomes its final JSON text as it is generated;
    the texts are written comma-joined, :data:`_CHUNK` at a time, so neither
    the event list nor the output string is ever held whole.  The bulk of an
    observed trace — the instants of the :class:`~repro.sim.trace.TraceLog`'s
    message rows, read from its columns, and the flow arrow pair of each
    delivered message — is written from fixed templates whose keys are
    already in sorted order, whenever its values have exactly the types the
    template writes as ``json`` would (strings, plain ints, finite floats);
    every other event goes through the C encoder one at a time.  Spans,
    critical paths and flows come from one shared fold of the log, which
    :func:`~repro.obs.warehouse.build_entry` may already have kept on it.
    Records that are not a log are appended to a fresh one first.
    """
    if not isinstance(records, TraceLog):
        records = TraceLog(records)
    texts = _chrome_texts(records)
    out.write('{"displayTimeUnit":"ms","traceEvents":[')
    separator = ""
    # An event's text is never empty, so an empty join means no events left.
    while chunk := ",".join(islice(texts, _CHUNK)):
        out.write(separator)
        out.write(chunk)
        separator = ","
    out.write("]}\n")
    return len(records)


_quote = encode_basestring_ascii
_float = float.__repr__  # what ``json`` writes for a finite float
_INF = float("inf")

#: Instant templates of message rows, keyed by kind: the event with its
#: keys (and the data's) in sorted order, filled in that order.
_MSG_INSTANTS = {
    KINDS.MSG_SEND: (
        '{"args":{"data":{"channel":%s,"dst":%d,"id":%d,"kind":%s}},'
        '"name":"msg-send","ph":"i","pid":0,"s":"t","tid":%d,"ts":%s}'
    ),
    KINDS.MSG_DELIVER: (
        '{"args":{"data":{"channel":%s,"id":%d,"kind":%s,"src":%d}},'
        '"name":"msg-deliver","ph":"i","pid":0,"s":"t","tid":%d,"ts":%s}'
    ),
}
#: Flow arrow templates, filled with the message id, the quoted message
#: kind, the track and the timestamp.
_FLOW_START = '{"cat":"msg","id":%d,"name":%s,"ph":"s","pid":0,"tid":%d,"ts":%s}'
_FLOW_END = '{"bp":"e","cat":"msg","id":%d,"name":%s,"ph":"f","pid":0,"tid":%d,"ts":%s}'


def _chrome_texts(log: TraceLog) -> Iterator[str]:
    """The JSON text of each trace event of :func:`export_chrome`, in output
    order."""
    # An event is built here around row-form data, which holds no cycle, so
    # the encoder skips its cycle check.
    encode = json.JSONEncoder(
        sort_keys=True, separators=(",", ":"), check_circular=False
    ).encode
    for pid in sorted({r.pid for r in log.kept}.union(log.pids)):
        yield encode(
            {
                "args": {"name": f"p{pid}" if pid >= 0 else "system"},
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": pid,
            }
        )

    def instant(time: Any, pid: Any, kind: Any, data: Any) -> str:
        return encode(
            {
                "args": {"data": row_data(kind, data)},
                "name": kind,
                "ph": "i",
                "pid": 0,
                "s": "t",
                "tid": pid,
                "ts": time * _MICROS,
            }
        )

    # Per row code: its template and the quoted message kind and channel.
    filled: list[tuple[str, bool, str, str] | None] = [None]
    for row in log.codes[1:]:
        filled.append(
            (_MSG_INSTANTS[row.kind], row.kind == KINDS.MSG_SEND,
             _quote(row.msg_kind), _quote(row.channel))
        )  # fmt: skip
    kept = iter(log.kept)
    rows = zip(log.times, log.pids, log.peers, log.ids)
    for code in log.order:
        if not code:
            yield instant(*next(kept))
            continue
        time, pid, peer, msg_id = next(rows)
        ts = time * _MICROS
        if -_INF < ts < _INF:
            text, send, name, channel = filled[code]
            if send:
                yield text % (channel, peer, msg_id, name, pid, _float(ts))
            else:
                yield text % (channel, msg_id, name, peer, pid, _float(ts))
        else:
            row = log.codes[code]
            yield instant(time, pid, row.kind, row.data(peer, msg_id))
    fold = _fold(log)
    for span in fold.builder.consensus_spans():
        if span.propose_at is None or span.decided_at is None:
            continue
        label = "consensus" if span.instance is None else f"consensus[{span.instance}]"
        yield encode(
            {
                "args": {
                    "steps": span.steps,
                    "via": span.via,
                    "value": describe_value(span.decided_value),
                },
                "dur": (span.decided_at - span.propose_at) * _MICROS,
                "name": label,
                "ph": "X",
                "pid": 0,
                "tid": span.pid,
                "ts": span.propose_at * _MICROS,
            }
        )
    # Causal layer: send → deliver flow arrows plus per-decision critical
    # paths.  Traces without message ids (obs off, pre-causal exports) have
    # no matched pairs and no hops, so they emit nothing extra here.
    for msg_id, name, src, dst, sent_at, delivered_at in fold.flows:
        start, end = sent_at * _MICROS, delivered_at * _MICROS
        if (
            type(msg_id) is int
            and type(name) is str
            and type(src) is int
            and type(dst) is int
            and type(start) is float
            and type(end) is float
            and -_INF < start < _INF
            and -_INF < end < _INF
        ):
            name = _quote(name)
            yield _FLOW_START % (msg_id, name, src, _float(start))
            yield _FLOW_END % (msg_id, name, dst, _float(end))
            continue
        flow = {"cat": "msg", "id": msg_id, "name": name, "pid": 0}
        yield encode({**flow, "ph": "s", "tid": src, "ts": start})
        yield encode({**flow, "bp": "e", "ph": "f", "tid": dst, "ts": end})
    for path in fold.paths:
        if path.propose_at is None or not path.hops:
            continue
        label = (
            "critical-path"
            if path.instance is None
            else f"critical-path[{path.instance}]"
        )
        args: dict[str, Any] = {
            "hops": len(path.hops),
            "network_time_us": path.network_time * _MICROS,
            "steps": path.steps,
            "via": path.via,
        }
        if path.cause is not None:
            args["cause"] = path.cause
        yield encode(
            {
                "args": args,
                "cname": "terrible" if path.cause is not None else "good",
                "dur": (path.decided_at - path.propose_at) * _MICROS,
                "name": label,
                "ph": "X",
                "pid": 0,
                "tid": path.pid,
                "ts": path.propose_at * _MICROS,
            }
        )
        for hop in path.hops:
            yield encode(
                {
                    "args": {"msg_id": hop.msg_id, "src": hop.src},
                    "cat": "critical-path",
                    "dur": hop.flight_time * _MICROS,
                    "name": f"cp:{hop.kind}",
                    "ph": "X",
                    "pid": 0,
                    "tid": hop.dst,
                    "ts": hop.sent_at * _MICROS,
                }
            )


def diff_traces(
    a: list[list[Any]], b: list[list[Any]]
) -> tuple[int, list[Any] | None, list[Any] | None] | None:
    """First divergence between two row lists, or ``None`` if identical.

    Returns ``(index, left_row, right_row)``; a missing row (one trace is a
    prefix of the other) is reported as ``None`` on the shorter side.
    """
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            return (i, ra, rb)
    if len(a) != len(b):
        i = min(len(a), len(b))
        return (i, a[i] if i < len(a) else None, b[i] if i < len(b) else None)
    return None

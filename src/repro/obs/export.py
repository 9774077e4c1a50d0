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
    the event list nor the output string is ever held whole.  Every event
    but the track names — the instants of the
    :class:`~repro.sim.trace.TraceLog`'s message rows, read from its
    columns, and of its kept records, the flow arrow pair of each delivered
    message, the consensus spans, critical paths and their hops — is
    written from a fixed template whose keys are already in sorted order,
    whenever its values have exactly the types the template writes as
    ``json`` would (strings, plain ints, finite floats); any other goes
    through the C encoder, and a kept record whose data has no template
    sends only its data through it.  Spans,
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
#: keys (and the data's) in sorted order.  Filled first with the quoted
#: channel and message kind of a row code, then per row with the peer and
#: id (a send) or the id and peer (a delivery), the track and the timestamp.
_MSG_INSTANTS = {
    KINDS.MSG_SEND: (
        '{"args":{"data":{"channel":%s,"dst":%%d,"id":%%d,"kind":%s}},'
        '"name":"msg-send","ph":"i","pid":0,"s":"t","tid":%%d,"ts":%%s}'
    ),
    KINDS.MSG_DELIVER: (
        '{"args":{"data":{"channel":%s,"id":%%d,"kind":%s,"src":%%d}},'
        '"name":"msg-deliver","ph":"i","pid":0,"s":"t","tid":%%d,"ts":%%s}'
    ),
}
#: Flow arrow templates, filled with the message id, the quoted message
#: kind, the track and the timestamp.
_FLOW_START = '{"cat":"msg","id":%d,"name":%s,"ph":"s","pid":0,"tid":%d,"ts":%s}'
_FLOW_END = '{"bp":"e","cat":"msg","id":%d,"name":%s,"ph":"f","pid":0,"tid":%d,"ts":%s}'
#: The instant of a kept record, filled with its data's text, the quoted
#: kind, the track and the timestamp.
_KEPT_INSTANT = '{"args":{"data":%s},"name":%s,"ph":"i","pid":0,"s":"t","tid":%d,"ts":%s}'
#: A consensus span, filled with its steps, the decided value's text, the
#: quoted via, the duration, the quoted name, the track and the timestamp.
_SPAN = (
    '{"args":{"steps":%d,"value":%s,"via":%s},"dur":%s,"name":%s,'
    '"ph":"X","pid":0,"tid":%d,"ts":%s}'
)
#: A critical path without a cause, filled with its hop count, network
#: time, steps, quoted via, duration, quoted name, track and timestamp.
_PATH = (
    '{"args":{"hops":%d,"network_time_us":%s,"steps":%d,"via":%s},"cname":"good",'
    '"dur":%s,"name":%s,"ph":"X","pid":0,"tid":%d,"ts":%s}'
)
#: One critical-path hop, filled with its message id, source, duration,
#: quoted name, track and timestamp.
_HOP = (
    '{"args":{"msg_id":%d,"src":%d},"cat":"critical-path","dur":%s,"name":%s,'
    '"ph":"X","pid":0,"tid":%d,"ts":%s}'
)


def _finite(value: Any) -> bool:
    """Whether ``json`` writes ``value`` as :data:`_float` does."""
    return type(value) is float and -_INF < value < _INF


def _stamp(time: float) -> Any:
    """The timestamp text of a row at ``time``, or ``time`` itself when
    ``json`` would not write it as a float repr."""
    ts = time * _MICROS
    return _float(ts) if -_INF < ts < _INF else time


def _str_keys(data: dict) -> bool:
    """Whether every key of ``data`` is a plain string."""
    for key in data:
        if type(key) is not str:
            return False
    return True


def _id_text(data: Any) -> str | None:
    """The JSON text of one ``(origin, seq)`` message id — an a-broadcast's
    or an a-deliver's data — or None for any other value."""
    if (type(data) is tuple or type(data) is list) and len(data) == 2:
        origin, seq = data
        if type(origin) is int and type(seq) is int:
            return "[%d,%d]" % (origin, seq)
    return None


def _ids_text(value: Any) -> str | None:
    """The JSON text of a list of message ids (a batch proposal's value),
    or None for any other value."""
    if type(value) is not list:
        return None
    texts = list(map(_id_text, value))
    return None if None in texts else "[" + ",".join(texts) + "]"


def _propose_data(data: Any) -> str | None:
    """A propose: ``{"value", "instance"}`` with a message-id list value."""
    if type(data) is dict and len(data) == 2 and _str_keys(data):
        instance = data.get("instance")
        value = _ids_text(data.get("value"))
        if type(instance) is int and value is not None:
            return '{"instance":%d,"value":%s}' % (instance, value)
    return None


def _round_start_data(data: Any) -> str | None:
    """A round-start without a phase: ``{"round", "instance"}``."""
    if type(data) is dict and len(data) == 2 and _str_keys(data):
        round_no = data.get("round")
        instance = data.get("instance")
        if type(round_no) is int and type(instance) is int:
            return '{"instance":%d,"round":%d}' % (instance, round_no)
    return None


def _round_end_data(data: Any) -> str | None:
    """A round-end: ``{"outcome", "steps", "via", "value", "instance"}``
    with a message-id list value."""
    if type(data) is dict and len(data) == 5 and _str_keys(data):
        instance = data.get("instance")
        outcome = data.get("outcome")
        steps = data.get("steps")
        via = data.get("via")
        value = _ids_text(data.get("value"))
        if (
            type(instance) is int
            and type(outcome) is str
            and type(steps) is int
            and type(via) is str
            and value is not None
        ):
            return '{"instance":%d,"outcome":%s,"steps":%d,"value":%s,"via":%s}' % (
                instance, _quote(outcome), steps, value, _quote(via)
            )  # fmt: skip
    return None


#: Kept-record kinds whose data has a fixed shape: kind -> the data's JSON
#: text, or None when the data does not have the shape.
_KEPT_DATA = {
    KINDS.A_BROADCAST: _id_text,
    KINDS.A_DELIVER: _id_text,
    KINDS.PROPOSE: _propose_data,
    KINDS.ROUND_START: _round_start_data,
    KINDS.ROUND_END: _round_end_data,
}


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

    def kept_instant(time: Any, pid: Any, kind: Any, data: Any) -> str:
        ts = time * _MICROS
        if type(pid) is not int or type(kind) is not str or not _finite(ts):
            return instant(time, pid, kind, data)
        shape = _KEPT_DATA.get(kind)
        text = None if shape is None else shape(data)
        if text is None:
            text = encode(row_data(kind, data))
        return _KEPT_INSTANT % (text, _quote(kind), pid, _float(ts))

    # Per row code: its template, filled with the code's strings (their
    # "%" doubled, to pass through the per-row fill), and whether it is a
    # send.
    filled: list[tuple[str, bool] | None] = [None]
    for row in log.codes[1:]:
        channel, kind = (_quote(text).replace("%", "%%") for text in (row.channel, row.msg_kind))
        filled.append((_MSG_INSTANTS[row.kind] % (channel, kind), row.kind == KINDS.MSG_SEND))
    times = log.times
    # A column of floats whose extremes scale to finite timestamps scales
    # to finite timestamps throughout: each row's stamp is then its float
    # repr, computed in C.  Otherwise a row that has none keeps its time.
    if not times or -_INF < min(times) * _MICROS and max(times) * _MICROS < _INF:
        stamps = map(_float, map(_MICROS.__mul__, times))
    else:
        stamps = map(_stamp, times)
    kept = iter(log.kept)
    rows = zip(stamps, log.pids, log.peers, log.ids)
    for code in log.order:
        if not code:
            yield kept_instant(*next(kept))
            continue
        stamp, pid, peer, msg_id = next(rows)
        if type(stamp) is str:
            text, send = filled[code]
            yield text % ((peer, msg_id, pid, stamp) if send else (msg_id, peer, pid, stamp))
        else:
            row = log.codes[code]
            yield instant(stamp, pid, row.kind, row.data(peer, msg_id))
    fold = _fold(log)
    yield from _span_texts(fold.builder, encode)
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
    yield from _path_texts(fold.paths, encode)


def _span_texts(builder: Any, encode: Any) -> Iterator[str]:
    """The duration event of each decided consensus span."""
    for span in builder.consensus_spans():
        propose_at, decided_at = span.propose_at, span.decided_at
        if propose_at is None or decided_at is None:
            continue
        label = "consensus" if span.instance is None else f"consensus[{span.instance}]"
        steps, via, pid, value = span.steps, span.via, span.pid, span.decided_value
        dur, ts = (decided_at - propose_at) * _MICROS, propose_at * _MICROS
        if (
            type(steps) is int
            and type(via) is str
            and type(pid) is int
            and _finite(dur)
            and _finite(ts)
        ):
            text = _ids_text(value)
            if text is None:
                text = encode(describe_value(value))
            yield _SPAN % (
                steps, text, _quote(via), _float(dur), _quote(label), pid, _float(ts)
            )  # fmt: skip
            continue
        yield encode(
            {
                "args": {"steps": steps, "via": via, "value": describe_value(value)},
                "dur": dur,
                "name": label,
                "ph": "X",
                "pid": 0,
                "tid": pid,
                "ts": ts,
            }
        )


def _path_texts(paths: Iterable[Any], encode: Any) -> Iterator[str]:
    """Each critical path with hops, then a duration event per hop."""
    for path in paths:
        if path.propose_at is None or not path.hops:
            continue
        label = (
            "critical-path"
            if path.instance is None
            else f"critical-path[{path.instance}]"
        )
        hops, steps, via, pid = len(path.hops), path.steps, path.via, path.pid
        network = path.network_time * _MICROS
        dur = (path.decided_at - path.propose_at) * _MICROS
        ts = path.propose_at * _MICROS
        if (
            path.cause is None
            and type(steps) is int
            and type(via) is str
            and type(pid) is int
            and _finite(network)
            and _finite(dur)
            and _finite(ts)
        ):
            yield _PATH % (
                hops, _float(network), steps, _quote(via), _float(dur),
                _quote(label), pid, _float(ts),
            )  # fmt: skip
        else:
            args: dict[str, Any] = {
                "hops": hops,
                "network_time_us": network,
                "steps": steps,
                "via": via,
            }
            if path.cause is not None:
                args["cause"] = path.cause
            yield encode(
                {
                    "args": args,
                    "cname": "terrible" if path.cause is not None else "good",
                    "dur": dur,
                    "name": label,
                    "ph": "X",
                    "pid": 0,
                    "tid": pid,
                    "ts": ts,
                }
            )
        for hop in path.hops:
            msg_id, src, dst = hop.msg_id, hop.src, hop.dst
            name = f"cp:{hop.kind}"
            dur, ts = hop.flight_time * _MICROS, hop.sent_at * _MICROS
            if (
                type(msg_id) is int
                and type(src) is int
                and type(dst) is int
                and _finite(dur)
                and _finite(ts)
            ):
                yield _HOP % (msg_id, src, _float(dur), _quote(name), dst, _float(ts))
                continue
            yield encode(
                {
                    "args": {"msg_id": msg_id, "src": src},
                    "cat": "critical-path",
                    "dur": dur,
                    "name": name,
                    "ph": "X",
                    "pid": 0,
                    "tid": dst,
                    "ts": ts,
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

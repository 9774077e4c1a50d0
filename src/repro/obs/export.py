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
from typing import Any, Iterable, Iterator, TextIO

from repro.errors import ConfigurationError
from repro.obs.causal import _ingest, critical_paths
from repro.sim.trace import TraceRecord, describe_value

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

#: Events per C-encoder call in :func:`export_chrome` (~0.5 MB of output).
_CHUNK = 4096


def record_rows(records: Iterable[TraceRecord]) -> list[list[Any]]:
    """Records as JSON-safe ``[time, pid, kind, data]`` rows."""
    return [[r.time, r.pid, r.kind, describe_value(r.data)] for r in records]


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
    by hand and the events are encoded :data:`_CHUNK` at a time, so every
    event goes through the C encoder while neither the full event list nor
    the full output string is ever held in memory.  Spans and the causal
    graph are built by one shared pass over the records.
    """
    records = list(records)
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    events = _chrome_events(records)
    out.write('{"displayTimeUnit":"ms","traceEvents":[')
    separator = ""
    while chunk := list(islice(events, _CHUNK)):
        out.write(separator)
        out.write(encode(chunk)[1:-1])  # strip the chunk's own brackets
        separator = ","
    out.write("]}\n")
    return len(records)


def _chrome_events(records: list[TraceRecord]) -> Iterator[dict[str, Any]]:
    """The trace events of :func:`export_chrome`, in output order."""
    for pid in sorted({r.pid for r in records}):
        yield {
            "args": {"name": f"p{pid}" if pid >= 0 else "system"},
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": pid,
        }
    for r in records:
        yield {
            "args": {"data": describe_value(r.data)},
            "name": r.kind,
            "ph": "i",
            "pid": 0,
            "s": "t",
            "tid": r.pid,
            "ts": r.time * _MICROS,
        }
    builder, graph = _ingest((r.time, r.pid, r.kind, r.data) for r in records)
    for span in builder.consensus_spans():
        if span.propose_at is None or span.decided_at is None:
            continue
        label = "consensus" if span.instance is None else f"consensus[{span.instance}]"
        yield {
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
    # Causal layer: send → deliver flow arrows plus per-decision critical
    # paths.  Traces without message ids (obs off, pre-causal exports) have
    # no matched pairs and no hops, so they emit nothing extra here.
    for send, deliver in graph.flows():
        yield {
            "cat": "msg",
            "id": send.id,
            "name": send.kind,
            "ph": "s",
            "pid": 0,
            "tid": send.src,
            "ts": send.time * _MICROS,
        }
        yield {
            "bp": "e",
            "cat": "msg",
            "id": send.id,
            "name": send.kind,
            "ph": "f",
            "pid": 0,
            "tid": deliver.dst,
            "ts": deliver.time * _MICROS,
        }
    for path in critical_paths(builder, graph):
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
        yield {
            "args": args,
            "cname": "terrible" if path.cause is not None else "good",
            "dur": (path.decided_at - path.propose_at) * _MICROS,
            "name": label,
            "ph": "X",
            "pid": 0,
            "tid": path.pid,
            "ts": path.propose_at * _MICROS,
        }
        for hop in path.hops:
            yield {
                "args": {"msg_id": hop.msg_id, "src": hop.src},
                "cat": "critical-path",
                "dur": hop.flight_time * _MICROS,
                "name": f"cp:{hop.kind}",
                "ph": "X",
                "pid": 0,
                "tid": hop.dst,
                "ts": hop.sent_at * _MICROS,
            }


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

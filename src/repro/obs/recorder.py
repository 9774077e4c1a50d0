"""Flight recorder: the recent trace events of each pid, for a failed run.

Safety-checker failures are rare and usually unreproducible outside the
exact seed that triggered them, so violated runs should ship their own
black box.  The recorder keeps no copy of the trace: when a checker raises,
the harness calls :meth:`FlightRecorder.attach`, which reads the last
``capacity`` records per pid off the tracer's own records and pins them
onto the error object (``err.flight_record``) before re-raising.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any

from repro.errors import ConfigurationError
from repro.obs.export import record_rows
from repro.sim.trace import CountingTracer, TraceRecord, Tracer

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """The most recent ``capacity`` trace records per pid.

    It covers the records emitted between its construction and
    :meth:`close`, so the tracer must keep records: a
    :class:`~repro.sim.trace.CountingTracer` is rejected.
    """

    def __init__(self, tracer: Tracer, capacity: int = 64) -> None:
        if isinstance(tracer, CountingTracer):
            raise ConfigurationError(
                "the flight recorder reads the tracer's records, and a "
                "CountingTracer keeps none: give the run a Tracer()"
            )
        self.capacity = capacity
        self._tracer = tracer
        self._start = len(tracer.records)
        self._stop: int | None = None

    def close(self) -> None:
        """Stop recording (e.g. once the run's check phase has passed)."""
        if self._stop is None:
            self._stop = len(self._tracer.records)

    def dump(self) -> dict[int, list[list[Any]]]:
        """Per-pid recent history as JSON-safe ``[time, pid, kind, data]`` rows."""
        tails: dict[int, deque[TraceRecord]] = {}
        for r in islice(self._tracer.records, self._start, self._stop):
            tail = tails.get(r.pid)
            if tail is None:
                tails[r.pid] = tail = deque(maxlen=self.capacity)
            tail.append(r)
        return {pid: record_rows(tails[pid]) for pid in sorted(tails)}

    def attach(self, err: BaseException) -> BaseException:
        """Pin the current dump onto ``err`` as ``err.flight_record``."""
        err.flight_record = self.dump()  # type: ignore[attr-defined]
        return err

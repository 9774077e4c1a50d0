"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing programming errors (``ValueError``/``TypeError`` style
misuse raises :class:`ConfigurationError`) from runtime protocol violations
(:class:`ProtocolViolation` and its subclasses).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An experiment, cluster or protocol was configured inconsistently.

    Examples: ``f >= n/3`` for a one-step protocol, a delay model with a
    negative mean, or two nodes registered under the same pid.
    """


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly.

    Examples: scheduling an event in the past, running a simulator that was
    already shut down, or re-entrant calls into :meth:`Simulator.run`.
    """


class ProtocolViolation(ReproError):
    """A safety property of a protocol was observed to be violated.

    Raised by the built-in checkers (agreement, validity, total order,
    integrity).  A correct protocol implementation never triggers these; the
    fault-injection tests use them to prove the checkers have teeth and the
    lower-bound demo uses them to exhibit the impossibility result.
    """


class AgreementViolation(ProtocolViolation):
    """Two processes decided (or a-delivered) differently."""


class ValidityViolation(ProtocolViolation):
    """A decided value was never proposed (or a message delivered but never broadcast)."""


class IntegrityViolation(ProtocolViolation):
    """A message was a-delivered more than once by the same process."""


class TotalOrderViolation(ProtocolViolation):
    """Two processes a-delivered the same messages in incompatible orders."""


class LinearizabilityViolation(ProtocolViolation):
    """A client-observed result is inconsistent with any linearization of the
    committed command history (e.g. a read returned a value the replayed
    per-key history cannot produce at its commit point)."""


class SerializabilityViolation(ProtocolViolation):
    """The cross-shard commit order admits no single serial order: the
    conflict graph over committed transactions (edges from per-shard commit
    precedence between transactions touching a shared shard) contains a
    cycle."""


class TerminationFailure(ReproError):
    """A run that was expected to decide/deliver did not do so within its horizon."""


class EventBudgetExhausted(ReproError):
    """A run's ``max_events`` budget ran out before its horizon.

    The truncated run is no result: its clients and logs stop mid-flight,
    so a checker would misreport it and a cache must not keep it.
    ``spec_key`` names the run spec when the caller knows it.
    """

    def __init__(self, message: str, spec_key: str | None = None) -> None:
        super().__init__(message)
        self.spec_key = spec_key

    @classmethod
    def at(
        cls, max_events: int, now: float, horizon: float, spec_key: str | None = None
    ) -> "EventBudgetExhausted":
        where = f"spec {spec_key}: " if spec_key else ""
        return cls(
            f"{where}max_events={max_events} ran out at t={now:.6g}s, before "
            f"the horizon {horizon:g}s",
            spec_key,
        )


class WorkerError(ReproError):
    """A worker process died, or raised something other than a library error,
    before returning its results.  ``partitions`` names the work it held (for
    a parallel sharded run: the shard numbers); no partial result is kept."""

    def __init__(self, message: str, partitions: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.partitions = tuple(partitions)

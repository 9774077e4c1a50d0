"""The nemesis DSL: frozen, content-addressed, composable fault schedules.

A :class:`NemesisSpec` is a declarative description of *everything that goes
wrong* during one simulated run — the Jepsen-style nemesis, as a value.  It
is an ordered tuple of frozen fault *ops*, each pinned to virtual time:

* :class:`PartitionOp` — split the network into groups at ``at``, heal at
  ``at + duration``;
* :class:`CrashOp`     — crash-stop one process (on RSM runs the replica
  rejoins as a learner per the run spec's ``recover_after``, giving
  crash/recover storms);
* :class:`DropOp`      — drop matching messages with probability ``p``
  inside the window;
* :class:`DelayOp`     — add constant-plus-exponential extra delay to
  matching messages inside the window (a delay spike; on the datagram
  channel this also reorders, since datagrams carry no FIFO floor);
* :class:`DupOp`       — re-send matching messages with probability ``p``
  inside the window (duplicate delivery);
* :class:`FdFlapOp`    — failure-detector instability: the oracle falsely
  suspects ``pid`` for the window, then trusts it again;
* :class:`CpuSkewOp`   — scale/offset one node's per-event CPU cost for the
  window (CPU-cost skew, the DES analogue of a slow clock).

Like the run specs in :mod:`repro.engine.spec`, a schedule is hashable and
content-addressed (:meth:`NemesisSpec.cache_key`), serializes to plain JSON
(:meth:`to_dict`/:meth:`from_dict`) and composes by concatenation (``a + b``
or :meth:`then`).  Randomness *inside* the schedule (drop/dup coin flips,
delay jitter) comes from the simulator's dedicated ``"nemesis"`` RNG stream
at execution time, so a schedule is fully deterministic per run seed while
staying reusable across seeds.

The schedule only describes faults; :mod:`repro.nemesis.inject` compiles it
to kernel events against a live simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.codec import Encoded, content_key, tagged
from repro.errors import ConfigurationError

__all__ = [
    "NEMESIS_VERSION",
    "PartitionOp",
    "CrashOp",
    "DropOp",
    "DelayOp",
    "DupOp",
    "FdFlapOp",
    "CpuSkewOp",
    "NemesisSpec",
    "crash_storm",
    "op_from_dict",
]

#: Bumped whenever op semantics or the serialized layout change.
NEMESIS_VERSION = 1


def _check_window(op: Any) -> None:
    if op.at < 0.0:
        raise ConfigurationError(f"{op.op} op cannot start before t=0 (at={op.at})")
    if getattr(op, "duration", 1.0) <= 0.0:
        raise ConfigurationError(f"{op.op} op needs a positive duration")


def _check_probability(op: Any, p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ConfigurationError(f"{op.op} op probability must be in (0, 1], got {p}")


class _Op(Encoded):
    """Common base of the fault ops.  Their dicts keep insertion order —
    ``op``, the fields, then the matchers — as trace records embed them."""

    __slots__ = ()
    tag = "op"
    tag_label = "nemesis op"


#: A message-matching op's ``src``/``dst``/``channel``, each written if set.
_MATCHERS = (("src",), ("dst",), ("channel",))


@dataclass(frozen=True, slots=True)
class PartitionOp(_Op):
    """Split the network into ``groups`` at ``at``; heal at ``at + duration``.

    Groups are sets of pids; messages only flow within a group while the
    window is open (exactly :meth:`repro.sim.network.Network.partition`).
    Pids in no group are isolated from everyone.
    """

    at: float
    duration: float
    groups: tuple[tuple[int, ...], ...]

    op = "partition"

    def __post_init__(self) -> None:
        _check_window(self)
        canonical = tuple(tuple(sorted(set(g))) for g in self.groups)
        if not canonical or any(not g for g in canonical):
            raise ConfigurationError("partition op needs at least one non-empty group")
        object.__setattr__(self, "groups", canonical)


@dataclass(frozen=True, slots=True)
class CrashOp(_Op):
    """Crash-stop process ``pid`` at ``at`` (the paper's fault model)."""

    at: float
    pid: int

    op = "crash"

    def __post_init__(self) -> None:
        _check_window(self)


@dataclass(frozen=True, slots=True)
class DropOp(_Op):
    """Drop matching messages with probability ``p`` during the window.

    ``src``/``dst``/``channel`` of ``None`` match anything.  Reliable
    channels in the paper's system model never lose messages, so a drop
    window is exactly the fault the indulgent protocols must mask.
    """

    at: float
    duration: float
    p: float = 1.0
    src: int | None = None
    dst: int | None = None
    channel: str | None = None

    op = "drop"
    omit = _MATCHERS

    def __post_init__(self) -> None:
        _check_window(self)
        _check_probability(self, self.p)


@dataclass(frozen=True, slots=True)
class DelayOp(_Op):
    """Add ``extra`` (+ exponential ``jitter``) seconds to matching messages.

    On the datagram channel added jitter reorders arrivals; on the reliable
    channel the network's per-link FIFO floor still holds, so a spike there
    models queueing, not reordering.
    """

    at: float
    duration: float
    extra: float = 0.0
    jitter: float = 0.0
    src: int | None = None
    dst: int | None = None
    channel: str | None = None

    op = "delay"
    omit = _MATCHERS

    def __post_init__(self) -> None:
        _check_window(self)
        if self.extra < 0.0 or self.jitter < 0.0:
            raise ConfigurationError("delay op extra/jitter must be >= 0")
        if self.extra == 0.0 and self.jitter == 0.0:
            raise ConfigurationError("delay op needs extra > 0 or jitter > 0")


@dataclass(frozen=True, slots=True)
class DupOp(_Op):
    """Duplicate matching messages with probability ``p`` during the window.

    The duplicate is re-submitted to the network at the moment of the
    original send, so it takes its own (independent) delay draw and its own
    FIFO slot — the classic at-least-once fault that application-level
    dedup must absorb.
    """

    at: float
    duration: float
    p: float = 1.0
    src: int | None = None
    dst: int | None = None
    channel: str | None = None

    op = "dup"
    omit = _MATCHERS

    def __post_init__(self) -> None:
        _check_window(self)
        _check_probability(self, self.p)


@dataclass(frozen=True, slots=True)
class FdFlapOp(_Op):
    """Failure-detector instability: falsely suspect ``pid`` for the window.

    The oracle detector reports ``pid`` crashed at ``at`` and (if the node
    has not actually crashed meanwhile) trusts it again at ``at + duration``
    — the wrong-suspicion runs that indulgent protocols must survive without
    violating safety.
    """

    at: float
    duration: float
    pid: int

    op = "fd-flap"

    def __post_init__(self) -> None:
        _check_window(self)


@dataclass(frozen=True, slots=True)
class CpuSkewOp(_Op):
    """Scale/offset ``pid``'s per-event CPU cost for the window.

    ``cost = old * factor + extra`` while the window is open.  This is the
    discrete-event analogue of clock/CPU skew: one node's handlers take
    longer, so its sends and timer fires drift late relative to the group.
    Only constant service-time models are skewed (callable models are left
    untouched — all spec-driven runs use constants).
    """

    at: float
    duration: float
    pid: int
    factor: float = 1.0
    extra: float = 0.0

    op = "cpu-skew"

    def __post_init__(self) -> None:
        _check_window(self)
        if self.factor < 0.0 or self.extra < 0.0:
            raise ConfigurationError("cpu-skew factor/extra must be >= 0")
        if self.factor == 1.0 and self.extra == 0.0:
            raise ConfigurationError("cpu-skew op needs factor != 1 or extra > 0")


NemesisOp = (
    PartitionOp | CrashOp | DropOp | DelayOp | DupOp | FdFlapOp | CpuSkewOp
)

_OP_TYPES = (PartitionOp, CrashOp, DropOp, DelayOp, DupOp, FdFlapOp, CpuSkewOp)
_decode_op = tagged(_OP_TYPES)


def op_from_dict(data: dict) -> NemesisOp:
    """Rebuild one fault op from its JSON dict form."""
    return _decode_op(data)


@dataclass(frozen=True)
class NemesisSpec(Encoded):
    """An ordered, frozen schedule of fault ops for one run.

    Attach to a run spec (``AbcastRunSpec(..., nemesis=schedule)`` and
    friends); the schedule serializes into the spec dict *only when
    non-empty*, so nemesis-free specs keep their exact pre-nemesis cache
    keys.  Schedules compose by concatenation: ``storm + partition_window``.
    """

    ops: tuple[NemesisOp, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if type(op).__name__ not in {cls.__name__ for cls in _OP_TYPES}:
                raise ConfigurationError(
                    f"nemesis schedule holds a non-op value: {op!r}"
                )

    def __len__(self) -> int:
        return len(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)

    def __add__(self, other: "NemesisSpec | Iterable[NemesisOp]") -> "NemesisSpec":
        extra = other.ops if isinstance(other, NemesisSpec) else tuple(other)
        return NemesisSpec(self.ops + tuple(extra))

    def then(self, *ops: NemesisOp) -> "NemesisSpec":
        """A new schedule with ``ops`` appended (composition helper)."""
        return NemesisSpec(self.ops + ops)

    def sorted_ops(self) -> tuple[tuple[int, NemesisOp], ...]:
        """(original_index, op) pairs in deterministic execution order.

        Stable sort by start time; the original index breaks ties, so two
        schedules that are permutations of each other compile to the same
        kernel events only if their op order agrees — the schedule is a
        *sequence*, not a set.
        """
        return tuple(
            sorted(enumerate(self.ops), key=lambda pair: (pair[1].at, pair[0]))
        )

    def pids(self) -> frozenset[int]:
        """Every pid the schedule names (for validation against a run's n)."""
        named: set[int] = set()
        for op in self.ops:
            for name in ("pid", "src", "dst"):
                value = getattr(op, name, None)
                if value is not None:
                    named.add(value)
            for group in getattr(op, "groups", ()):
                named.update(group)
        return frozenset(named)

    def cache_key(self) -> str:
        """Stable content address of this schedule."""
        return content_key(
            {"version": NEMESIS_VERSION, "kind": "nemesis", **self.to_dict()}
        )


def crash_storm(
    pids: Sequence[int], start: float, spacing: float = 0.0
) -> NemesisSpec:
    """A crash storm: crash ``pids`` in order, ``spacing`` seconds apart."""
    return NemesisSpec(
        tuple(
            CrashOp(at=start + index * spacing, pid=pid)
            for index, pid in enumerate(pids)
        )
    )

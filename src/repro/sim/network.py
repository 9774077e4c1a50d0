"""Simulated network: delay models, reliable FIFO channels, unordered datagrams.

This module stands in for the 100 Mb Ethernet LAN of the paper's testbed.
Two transport classes are modelled, matching section 8.1 of the paper
("The WAB oracle implementation uses UDP packets whereas the rest of the
communication is TCP-based"):

* ``RELIABLE`` — a TCP-like channel: no loss, no duplication, per-(src, dst)
  FIFO ordering.  This is the reliable channel assumed by the system model
  (section 3).
* ``DATAGRAM`` — a UDP-like channel: per-message independent delays, no FIFO
  guarantee, optional loss.  The WAB oracle runs on top of this; *spontaneous
  total order* emerges naturally because uncontended datagrams experience
  similar delays, and breaks down when broadcasts overlap in time.

Fault injection (link filters, partitions) is built in so the failure
detector and protocol tests can create unstable runs on demand.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass
from heapq import heappush
from itertools import repeat
from math import exp as _exp, log as _log
from random import NV_MAGICCONST
from typing import Any, Callable, Protocol

from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator
from repro.sim.process import Scoped
from repro.sim.trace import KINDS

__all__ = [
    "DelayModel",
    "ConstantDelay",
    "UniformDelay",
    "ExponentialDelay",
    "LogNormalDelay",
    "LanDelay",
    "Envelope",
    "HEADER_BYTES",
    "LinkCapacity",
    "NetworkStats",
    "Network",
    "RELIABLE",
    "DATAGRAM",
]

RELIABLE = "reliable"
DATAGRAM = "datagram"


class DelayModel(Protocol):
    """Samples a one-way message delay in seconds.

    ``sample_many(rng, n)`` is the vectorized contract the network draws a
    send cohort's delays with: it must consume ``rng`` in **exactly** the
    order and count of ``n`` sequential ``sample`` calls, so a broadcast
    draws the same delays — bit for bit — as a per-destination loop.
    Models without the method still work; the network falls back to ``n``
    ``sample`` calls.
    """

    def sample(self, rng) -> float:  # pragma: no cover - protocol signature
        ...

    def sample_many(self, rng, n: int) -> list[float]:  # pragma: no cover
        ...

    def mean(self) -> float:  # pragma: no cover - protocol signature
        ...


@dataclass(frozen=True)
class ConstantDelay:
    """Every message takes exactly ``delay`` seconds."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ConfigurationError(f"negative delay {self.delay}")

    def sample(self, rng) -> float:
        return self.delay

    def sample_many(self, rng, n: int) -> list[float]:
        # Constant delays consume no randomness, matching n sample() calls.
        return [self.delay] * n

    def mean(self) -> float:
        return self.delay


@dataclass(frozen=True)
class UniformDelay:
    """Delay uniform in ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ConfigurationError(f"bad uniform bounds [{self.low}, {self.high}]")

    def sample(self, rng) -> float:
        return rng.uniform(self.low, self.high)

    def sample_many(self, rng, n: int) -> list[float]:
        uniform = rng.uniform
        low = self.low
        high = self.high
        return [uniform(low, high) for _ in range(n)]

    def mean(self) -> float:
        return (self.low + self.high) / 2


@dataclass(frozen=True)
class ExponentialDelay:
    """``base`` plus an exponential tail with the given ``mean_extra``."""

    base: float
    mean_extra: float

    def __post_init__(self) -> None:
        if self.base < 0 or self.mean_extra < 0:
            raise ConfigurationError("negative exponential delay parameters")

    def sample(self, rng) -> float:
        if self.mean_extra == 0:
            return self.base
        return self.base + rng.expovariate(1.0 / self.mean_extra)

    def sample_many(self, rng, n: int) -> list[float]:
        base = self.base
        if self.mean_extra == 0:
            return [base] * n
        expovariate = rng.expovariate
        lambd = 1.0 / self.mean_extra
        return [base + expovariate(lambd) for _ in range(n)]

    def mean(self) -> float:
        return self.base + self.mean_extra


def _lognormal_draws(model, rng, n: int) -> list[float]:
    """``n`` draws of ``base + rng.lognormvariate(mu, sigma)``: the
    ``sample_many`` of both log-normal models (``base`` is 0.0 for
    :class:`LogNormalDelay`, and ``0.0 + x == x``).

    Stdlib ``normalvariate`` (Kinderman-Monahan ratio method: draw u1, u2
    until accepted) then ``exp``, verbatim — the same ``rng.random()`` draws
    and float expressions, bit for bit — minus the wrapper frames.
    """
    random = rng.random
    base = model._base
    mu = model._mu
    sigma = model._sigma
    out = []
    while len(out) < n:
        u1 = random()
        u2 = 1.0 - random()
        z = NV_MAGICCONST * (u1 - 0.5) / u2
        if z * z / 4.0 <= -_log(u2):
            out.append(base + _exp(mu + z * sigma))
    return out


@dataclass(frozen=True)
class LogNormalDelay:
    """Log-normal delay, parametrised by its actual mean and sigma.

    Log-normal latencies are the classic empirical fit for switched-LAN
    round-trips; ``sigma`` around 0.3-0.5 gives a realistic mild tail.
    """

    mean_delay: float
    sigma: float

    def __post_init__(self) -> None:
        if self.mean_delay <= 0 or self.sigma < 0:
            raise ConfigurationError("bad lognormal parameters")
        # Precomputed once: sample() runs per message on the hot path.  The
        # expression is identical to the historical per-call one, so the mu
        # bits — and therefore every RNG draw — are unchanged.
        object.__setattr__(self, "_mu", math.log(self.mean_delay) - self.sigma**2 / 2)
        object.__setattr__(self, "_base", 0.0)
        object.__setattr__(self, "_sigma", self.sigma)

    def sample(self, rng) -> float:
        return self.sample_many(rng, 1)[0]

    sample_many = _lognormal_draws

    def mean(self) -> float:
        return self.mean_delay


@dataclass(frozen=True)
class LanDelay:
    """A 100 Mb-Ethernet-flavoured delay: wire base + jittered queueing tail.

    ``base`` models propagation plus kernel traversal; the log-normal jitter
    models switch and driver queueing.  Defaults approximate the sub-
    millisecond one-way delays of the paper's testbed.
    """

    base: float = 80e-6
    jitter_mean: float = 40e-6
    jitter_sigma: float = 0.6

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_mu", math.log(self.jitter_mean) - self.jitter_sigma**2 / 2
        )
        object.__setattr__(self, "_base", self.base)
        object.__setattr__(self, "_sigma", self.jitter_sigma)

    def sample(self, rng) -> float:
        return self.sample_many(rng, 1)[0]

    sample_many = _lognormal_draws

    def mean(self) -> float:
        return self.base + self.jitter_mean


@dataclass(slots=True)
class Envelope:
    """What the network hands to a destination node.

    ``msg_id`` is the network-wide send sequence number of this message
    (see :attr:`Network._msg_seq`); ``-1`` marks envelopes built outside
    the network's send path (tests constructing envelopes by hand).
    """

    src: int
    dst: int
    payload: Any
    channel: str
    sent_at: float
    size: int = 1
    msg_id: int = -1


@dataclass(frozen=True)
class LinkCapacity:
    """Finite-bandwidth model of the LAN fabric.

    ``frame_time`` is the wire occupancy of one message (e.g. a full
    ~1500-byte frame on 100 Mb Ethernet serialises in ~120 µs; protocol
    messages with headers and Java serialisation land around 40-100 µs).

    * ``shared`` — one half-duplex medium: every message in the whole
      network serialises through a single resource (classic hub/CSMA).
    * ``switched`` — full duplex per port: a sender's messages queue on its
      uplink, a receiver's on its downlink (store-and-forward switch).

    This is the load-dependent component of the latency/throughput curves:
    at high throughput the per-port queues grow and inflate delays.  In
    ``switched`` mode they do not reorder messages:
    :meth:`Network.send_batch` books the receiver's downlink when the send
    is called, so each receiver gets its messages in send-call order,
    whatever the delay draws.  All receivers see one order, and spontaneous
    order does not degrade with load.  Serving each port in arrival order
    instead is item 8(a) of ``ROADMAP.md``.
    """

    frame_time: float
    mode: str = "switched"

    def __post_init__(self) -> None:
        if self.frame_time < 0:
            raise ConfigurationError("frame_time must be >= 0")
        if self.mode not in ("shared", "switched"):
            raise ConfigurationError(f"unknown capacity mode {self.mode!r}")


#: Per-message fixed overhead (Ethernet + IP + TCP/UDP headers) assumed by
#: the wire-size estimate below.
HEADER_BYTES = 64


def _approx_bytes(payload: Any) -> int:
    """Deterministic wire-size estimate of a payload.

    The paper reports message *counts*; for byte-level accounting we
    approximate the serialised size as the header overhead plus the length
    of the payload's repr — crude, but stable across runs and monotone in
    the message's actual content, which is all the per-kind byte reports
    need.  This is the reference definition; :class:`NetworkStats` computes
    the same value through memoised fast paths.
    """
    return HEADER_BYTES + len(repr(payload))


#: The fixed part of a ``Scoped`` wrapper's generated repr,
#: ``"Scoped(scope=" + repr(scope) + ", inner=" + repr(inner) + ")"``.
_SCOPED_REPR_OVERHEAD = len(repr(Scoped((), None))) - len(repr(())) - len(repr(None))

#: Per-type sentinel marking "this type is a scope wrapper, unwrap it".
_WRAPPER = object()

#: Per-type sentinel marking "repr is not decomposable, use repr() directly".
_OPAQUE = object()


def _dataclass_repr_template(tp: type) -> tuple[tuple[str, ...], int] | None:
    """Field names and fixed overhead of a generated dataclass repr.

    A dataclass-generated ``__repr__`` renders as
    ``Qualname(f1=<repr>, f2=<repr>, ...)`` over the fields with
    ``repr=True``, so its length decomposes into a per-type constant plus
    the field-value repr lengths.  Returns None when ``tp`` is not a
    dataclass or overrides ``__repr__`` with its own implementation
    (the generated one is wrapped by ``reprlib.recursive_repr``, which is
    what the ``__wrapped__`` probe detects).
    """
    if not dataclasses.is_dataclass(tp):
        return None
    repr_fn = tp.__dict__.get("__repr__")
    if repr_fn is None or getattr(repr_fn, "__wrapped__", None) is None:
        return None
    names = tuple(f.name for f in dataclasses.fields(tp) if f.repr)
    # "Qualname(" + "f1=" + ", f2=" ... + ")"
    overhead = len(tp.__qualname__) + 2
    for index, name in enumerate(names):
        overhead += len(name) + 1 + (2 if index else 0)
    return names, overhead


#: Cap on the identity-keyed ``_frozenset_lens`` memo.  Long runs mint
#: estimate frozensets indefinitely; past the cap the oldest entry is evicted
#: (dicts iterate in insertion order), which only costs a recomputation —
#: never exactness — if that entry is ever needed again.  Every kept entry
#: pins its frozenset and the messages inside it, and a resend comes within
#: a few rounds, so the cap is small: on ``fig2_sweep`` 16 entries keep all
#: but 0.2 % of the hits that 4 096 did.
STATS_MEMO_CAP = 16


class NetworkStats:
    """Counts messages, payload classes and estimated bytes on the network.

    Byte accounting is lazy/memoised but **exact**: every total equals the
    naive ``HEADER_BYTES + len(repr(payload))`` of the seed implementation.
    Three shortcuts make the common cases cheap:

    * a one-entry identity cache — a broadcast hands the *same* payload
      object to every destination, so n sends cost one repr;
    * scope-wrapper arithmetic — a dataclass ``Scoped(scope, inner)`` repr
      is compositional (``"Scoped(scope=" + repr(scope) + ", inner=" +
      repr(inner) + ")"``), so the wrapper costs a constant plus the C-level
      repr of its scope tuple and only the inner payload is walked;
    * a per-type kind cache, replacing two ``hasattr`` probes per send.
    """

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.bytes_sent = 0
        # Partition accounting: total sends blocked by a partition, plus one
        # {"start", "end", "blocked"} record per partition window (``end`` is
        # None while a window is still open).  Both appear in snapshot() only
        # when a partition was ever applied, so fault-free reports keep their
        # exact historical bytes.
        self.partition_blocked = 0
        self.partition_windows: list[dict] = []
        # Per-channel counts and per-kind [count, bytes] pairs; one dict
        # lookup per send instead of three Counter updates.  Exposed as
        # Counters through the by_channel/by_kind/by_kind_bytes properties.
        self._channel_counts: dict[str, int] = {}
        self._kind_stats: dict[str, list[int]] = {}
        # kind per payload type; _WRAPPER marks scope wrappers.
        self._type_kind: dict[type, Any] = {}
        # type -> (field names, fixed overhead) for decomposable dataclass
        # reprs, or _OPAQUE for everything else.
        self._repr_templates: dict[type, Any] = {}
        # Identity memo of the last accounted payload (the kept reference
        # pins the id against reuse).
        self._last_payload: Any = None
        self._last_kind: str = ""
        self._last_size: int = 0
        # Identity memo of the last inner object measured by _repr_len:
        # a DECIDE fanned out to n - 1 peers arrives in n - 1 *distinct*
        # Scoped wrappers sharing one inner message.
        self._last_inner: Any = None
        self._last_inner_len: int = 0
        # count()'s own inner memo (kind + length), same sharing pattern.
        self._last_sent_inner: Any = None
        self._last_sent_inner_kind: str = ""
        self._last_sent_inner_len: int = 0
        # id(frozenset) -> (ref, repr length).  Estimates travel as shared
        # frozenset objects resent across rounds and processes; a frozenset's
        # iteration order (hence repr) is fixed for a given object, so the
        # length is cacheable by identity.  The kept ref pins the id.
        self._frozenset_lens: dict[int, tuple[Any, int]] = {}

    # ------------------------------------------------------------- accounting

    def count(self, payload: Any, channel: str, n: int) -> str:
        """Account ``n`` sends of ``payload`` on ``channel``; returns its kind.

        The network's only byte accounting, called once per send cohort:
        every destination carries the same payload object, so kind and size
        are computed once and the counters advanced by ``n``.
        """
        if payload is self._last_payload and payload is not None:
            kind = self._last_kind
            size = self._last_size
        else:
            if type(payload) is Scoped:
                # Unrolled common case: one scope wrapper around a message.
                # Kind and length of the *inner* object are memoised by
                # identity, so a fan-out of distinct wrappers sharing one
                # inner message (a forwarded DECIDE) costs one walk.
                overhead = _SCOPED_REPR_OVERHEAD + len(repr(payload.scope))
                inner = payload.inner
                if inner is self._last_sent_inner and inner is not None:
                    kind = self._last_sent_inner_kind
                    inner_len = self._last_sent_inner_len
                else:
                    kind = self._kind_of(inner)
                    inner_len = self._repr_len(inner)
                    self._last_sent_inner = inner
                    self._last_sent_inner_kind = kind
                    self._last_sent_inner_len = inner_len
                size = HEADER_BYTES + overhead + inner_len
            else:
                kind = self._kind_of(payload)
                size = HEADER_BYTES + self._repr_len(payload)
            self._last_payload = payload
            self._last_kind = kind
            self._last_size = size
        self.sent += n
        self.bytes_sent += size * n
        channels = self._channel_counts
        channels[channel] = channels.get(channel, 0) + n
        stats = self._kind_stats.get(kind)
        if stats is None:
            stats = self._kind_stats[kind] = [0, 0]
        stats[0] += n
        stats[1] += size * n
        return kind

    def record_sent(self, envelope: Envelope) -> None:
        self.count(envelope.payload, envelope.channel, 1)

    def _repr_len(self, payload: Any) -> int:
        """Exact ``len(repr(payload))``, avoiding reprs of cached structure.

        ``Scoped`` wrappers and dataclass messages have compositional
        generated reprs, so their fixed parts are constants cached per type and
        only leaf values (ids, payloads — typically C-repr'd tuples and
        strings) are measured directly.
        """
        tp = type(payload)
        if tp is Scoped:
            overhead = _SCOPED_REPR_OVERHEAD + len(repr(payload.scope))
            inner = payload.inner
            if inner is self._last_inner and inner is not None:
                return overhead + self._last_inner_len
            inner_len = self._repr_len(inner)
            self._last_inner = inner
            self._last_inner_len = inner_len
            return overhead + inner_len
        if tp is frozenset:
            cached = self._frozenset_lens.get(id(payload))
            if cached is not None and cached[0] is payload:
                return cached[1]
            length = len(repr(payload))
            memo = self._frozenset_lens
            memo[id(payload)] = (payload, length)
            if len(memo) > STATS_MEMO_CAP:
                del memo[next(iter(memo))]
            return length
        template = self._repr_templates.get(tp)
        if template is None:
            template = self._learn_template(tp, payload)
        if template is _OPAQUE:
            return len(repr(payload))
        names, overhead = template
        total = overhead
        for name in names:
            value = getattr(payload, name)
            tv = type(value)
            if tv is int or tv is str or tv is tuple or tv is float:
                # C-repr'd leaf: a recursive call would land on the opaque
                # branch and compute exactly this.
                total += len(repr(value))
            else:
                total += self._repr_len(value)
        return total

    def _learn_template(self, tp: type, payload: Any) -> Any:
        """Learn (and verify) the repr decomposition of a new payload type."""
        template = _dataclass_repr_template(tp)
        if template is not None:
            names, overhead = template
            decomposed = overhead
            for name in names:
                decomposed += self._repr_len(getattr(payload, name))
            if decomposed != len(repr(payload)):  # paranoia: custom repr?
                template = None
        if template is None:
            template = _OPAQUE
        self._repr_templates[tp] = template
        return template

    def _kind_of(self, payload: Any) -> str:
        """Message-kind label (innermost payload type), cached per type."""
        tp = type(payload)
        kind = self._type_kind.get(tp)
        if kind is None:
            # Duck-typed so wrapper types other than Scoped keep working.
            if hasattr(payload, "scope") and hasattr(payload, "inner"):
                self._type_kind[tp] = _WRAPPER
                return self._kind_of(payload.inner)
            kind = tp.__name__
            self._type_kind[tp] = kind
            return kind
        if kind is _WRAPPER:
            return self._kind_of(payload.inner)
        return kind

    def record_dropped(self) -> None:
        self.dropped += 1

    # ---------------------------------------------------- partition windows

    def begin_partition_window(self, now: float) -> None:
        self.end_partition_window(now)
        self.partition_windows.append({"start": now, "end": None, "blocked": 0})

    def end_partition_window(self, now: float) -> None:
        if self.partition_windows and self.partition_windows[-1]["end"] is None:
            self.partition_windows[-1]["end"] = now

    def record_partition_blocked(self) -> None:
        self.dropped += 1
        self.partition_blocked += 1
        if self.partition_windows and self.partition_windows[-1]["end"] is None:
            self.partition_windows[-1]["blocked"] += 1

    @property
    def by_channel(self) -> Counter:
        return Counter(self._channel_counts)

    @property
    def by_kind(self) -> Counter:
        return Counter({kind: s[0] for kind, s in self._kind_stats.items()})

    @property
    def by_kind_bytes(self) -> Counter:
        return Counter({kind: s[1] for kind, s in self._kind_stats.items()})

    def snapshot(self) -> dict:
        snap = {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "bytes_sent": self.bytes_sent,
            "by_channel": dict(self._channel_counts),
            "by_kind": {kind: s[0] for kind, s in self._kind_stats.items()},
            "by_kind_bytes": {kind: s[1] for kind, s in self._kind_stats.items()},
        }
        # Only runs that actually partitioned the network grow these keys;
        # every pre-existing report stays byte-identical.
        if self.partition_windows:
            snap["partition_blocked"] = self.partition_blocked
            snap["partition_windows"] = [dict(w) for w in self.partition_windows]
        return snap


# A link filter takes an Envelope and returns either a float (extra delay in
# seconds), True (deliver normally) or False/None (drop).
LinkFilter = Callable[[Envelope], "bool | float | None"]


class Network:
    """Message fabric connecting registered nodes.

    The network delivers by calling ``deliver(envelope)`` on the destination
    node object; :class:`repro.sim.node.Node` implements that hook (and the
    CPU/queueing model behind it).
    """

    def __init__(
        self,
        sim: Simulator,
        delay: DelayModel | None = None,
        datagram_delay: DelayModel | None = None,
        datagram_loss: float = 0.0,
        fifo_epsilon: float = 1e-9,
        capacity: "LinkCapacity | None" = None,
    ) -> None:
        if not 0.0 <= datagram_loss < 1.0:
            raise ConfigurationError(f"datagram_loss must be in [0,1), got {datagram_loss}")
        self.sim = sim
        self.delay = delay or LanDelay()
        self.datagram_delay = datagram_delay or self.delay
        # Bound once (delay models are frozen).  send_batch draws a cohort's
        # delays with sample_many, or with one sample() per admitted message
        # under partitions, filters or datagram loss: identical draws.
        # sample_many is optional on the DelayModel protocol.
        self._delay_sample = self.delay.sample
        self._datagram_sample = self.datagram_delay.sample
        self._delay_sample_many = getattr(self.delay, "sample_many", None)
        self._datagram_sample_many = getattr(self.datagram_delay, "sample_many", None)
        self.datagram_loss = datagram_loss
        self.fifo_epsilon = fifo_epsilon
        self.capacity = capacity
        self.stats = NetworkStats()
        self._nodes: dict[int, Any] = {}
        self._pids_sorted: tuple[int, ...] = ()
        # Bound ``deliver_from`` methods, resolved once at registration:
        # pid -> method (None for duck-typed receivers that only implement
        # ``deliver(envelope)``), plus a tuple aligned with _pids_sorted so
        # broadcasts resolve the whole fan-out with one equality check.
        # The tuple is left empty when any receiver lacks the fast path.
        self._deliver_fast: dict[int, Any] = {}
        self._fast_sorted: tuple[Any, ...] = ()
        # src -> {dst -> last arrival time} (per-link FIFO floors).
        self._last_arrival: dict[int, dict[int, float]] = {}
        self._uplink_busy: dict[int, float] = {}
        self._downlink_busy: dict[int, float] = {}
        self._medium_busy = 0.0
        self._filters: list[LinkFilter] = []
        self._partitions: list[frozenset[int]] = []
        self._rng = sim.rng("network")
        # Network-wide send sequence number.  Every send consumes exactly one
        # id — including partition-blocked and filter-dropped sends; a
        # cohort reserves its n ids up front — so the id of the k-th send
        # does not depend on how sends were grouped, or on obs being on or
        # off.  Under obs the id is stamped into msg-send/msg-deliver
        # records, giving every delivery a causal edge to its originating
        # send (repro.obs.causal builds the DAG from those edges).
        self._msg_seq = 0
        # Set by the obs runtime for detailed tracing (msg-send/msg-deliver
        # records); None keeps the hot path free of tracing work.
        self.obs_tracer = None

    # ------------------------------------------------------------- membership

    def register(self, pid: int, node: Any) -> None:
        """Attach ``node`` as the receiver for ``pid``.

        Receivers exposing ``deliver_from(src, payload)`` get arrivals
        dispatched to it directly (no :class:`Envelope`) and own the
        ``delivered`` stats increment, as :class:`~repro.sim.node.Node`
        does; receivers with only ``deliver(envelope)`` take the envelope
        path and are counted by the network.
        """
        if pid in self._nodes:
            raise ConfigurationError(f"node {pid} registered twice")
        self._nodes[pid] = node
        self._deliver_fast[pid] = getattr(node, "deliver_from", None)
        self._pids_sorted = tuple(sorted(self._nodes))
        fast = tuple(self._deliver_fast[p] for p in self._pids_sorted)
        self._fast_sorted = fast if None not in fast else ()

    @property
    def pids(self) -> tuple[int, ...]:
        """Registered pids, sorted — the cached tuple itself, never a copy."""
        return self._pids_sorted

    # --------------------------------------------------------- fault injection

    def add_filter(self, fn: LinkFilter) -> Callable[[], None]:
        """Install a link filter; returns a callable that removes it.

        Removal is by identity, not equality: installing two equal filters
        (e.g. the same function twice) and removing one always removes the
        instance this call installed.
        """
        self._filters.append(fn)

        def remove() -> None:
            for index, installed in enumerate(self._filters):
                if installed is fn:
                    del self._filters[index]
                    return

        return remove

    def partition(self, *groups: set[int]) -> None:
        """Split the network: messages only flow within a group.

        Applying a partition opens an accounting window in
        :class:`NetworkStats` (blocked sends are counted per window) and,
        when observability is on, records a ``net-partition`` trace event —
        partitions used to be invisible in trace exports.
        """
        was_partitioned = bool(self._partitions)
        self._partitions = [frozenset(g) for g in groups]
        now = self.sim._now
        if self._partitions:
            self.stats.begin_partition_window(now)
            if self.obs_tracer is not None:
                self.obs_tracer.emit(
                    now,
                    -1,
                    KINDS.NET_PARTITION,
                    {"groups": [sorted(g) for g in self._partitions]},
                )
        elif was_partitioned:
            # partition() with no groups is a heal in disguise.
            self._record_heal(now)

    def heal(self) -> None:
        """Remove any partition (closes the stats window, traces the heal)."""
        was_partitioned = bool(self._partitions)
        self._partitions = []
        if was_partitioned:
            self._record_heal(self.sim._now)

    def _record_heal(self, now: float) -> None:
        stats = self.stats
        stats.end_partition_window(now)
        if self.obs_tracer is not None:
            blocked = (
                stats.partition_windows[-1]["blocked"]
                if stats.partition_windows
                else 0
            )
            self.obs_tracer.emit(now, -1, KINDS.NET_HEAL, {"blocked": blocked})

    def _partition_blocks(self, src: int, dst: int) -> bool:
        if not self._partitions:
            return False
        return not any(src in g and dst in g for g in self._partitions)

    # ----------------------------------------------------------------- sending

    def send(self, src: int, dst: int, payload: Any, channel: str = RELIABLE) -> None:
        """Transmit ``payload`` from ``src`` to ``dst`` (a cohort of one)."""
        self.send_batch(src, (dst,), payload, channel)

    def send_batch(
        self, src: int, dsts: "tuple[int, ...] | list[int]", payload: Any,
        channel: str = RELIABLE,
    ) -> None:
        """Transmit ``payload`` from ``src`` to each pid in ``dsts``, in order.

        The network's one transmit path, equivalent byte for byte to one
        single-destination send per pid.  Reliable channels never drop (the
        system model's channels are reliable); only partitions and filters,
        which tests use to model link failures, sever them.

        Per cohort: the payload is accounted once, the n message ids are
        reserved, and the delays come from one :meth:`DelayModel.sample_many`
        call unless partitions, filters or datagram loss make admission
        interleave with the draws.  Per message, in order: the obs msg-send
        record, admission (:meth:`_admit`), sender-side capacity, datagram
        loss draw, delay draw, downlink capacity, FIFO floor, heap push.
        """
        n = len(dsts)
        if n == 0:
            return
        if channel == RELIABLE:
            reliable = True
            sample = self._delay_sample
            sample_many = self._delay_sample_many
        elif channel == DATAGRAM:
            reliable = False
            sample = self._datagram_sample
            sample_many = self._datagram_sample_many
        else:
            raise ConfigurationError(f"unknown channel {channel!r}")
        # Each pid's bound deliver_from, None for a receiver that only takes
        # envelopes; an unknown pid is rejected before anything is counted.
        deliver_fast = self._deliver_fast
        try:
            if n == 1:
                resolved = (deliver_fast[dsts[0]],)
            elif self._fast_sorted and dsts == self._pids_sorted:
                # Broadcast to the full sorted group (env.peers tuples
                # compare equal even when not the cached object).
                resolved = self._fast_sorted
            else:
                resolved = list(map(deliver_fast.__getitem__, dsts))
        except KeyError as err:
            raise ConfigurationError(f"unknown destination pid {err.args[0]}") from None

        sim = self.sim
        now = sim._now
        kind = self.stats.count(payload, channel, n)
        first_id = self._msg_seq
        self._msg_seq = first_id + n
        rng = self._rng
        tracer = self.obs_tracer
        loss = 0.0 if reliable else self.datagram_loss
        admission = self._partitions or self._filters
        if admission or loss:
            # Admission interleaves with the draws: each admitted message
            # draws its own delay, exactly as n sequential sends would.
            delays = repeat(None)
        else:
            delays = sample_many(rng, n) if sample_many else [sample(rng) for _ in range(n)]
        # Bare: no per-message admission work (obs record, partition, filter).
        bare = tracer is None and not admission
        if tracer is not None:
            emit_send = tracer.sends.emit
            emit_deliver = tracer.delivers.emit

        # The sender-side busy time (uplink or shared medium) chains through
        # the cohort in a local and is written back once; downlinks are per
        # destination.
        capacity = self.capacity
        frame = frame_time = 0.0
        busy = 0.0
        switched = False
        if capacity is not None:
            frame = frame_time = capacity.frame_time
            if capacity.mode == "shared":
                busy = self._medium_busy
            else:
                switched = True
                busy = self._uplink_busy.get(src, 0.0)
                downlink = self._downlink_busy
        if reliable:
            per_src = self._last_arrival.get(src)
            if per_src is None:
                per_src = self._last_arrival[src] = {}
            fifo_epsilon = self.fifo_epsilon
        queue = sim._queue
        bare_args = (src, payload)
        envelope = None
        extra = 0.0
        msg_id = first_id - 1
        # The kernel's sequence counter lives in a local, synced around
        # every call that may schedule (or raise).
        seq = sim._seq
        for dst, deliver, delay in zip(dsts, resolved, delays):
            msg_id += 1
            if not bare:
                if tracer is not None:
                    emit_send(now, src, dst, kind, channel, msg_id)
                if admission:
                    sim._seq = seq  # a duplicating filter schedules its resend
                    envelope, extra = self._admit(src, dst, payload, channel, now, msg_id)
                    seq = sim._seq
                    if extra is None:
                        continue
                    frame = frame_time if envelope is None else frame_time * envelope.size

            # Sender-side serialisation: one frame time on the uplink (or
            # the shared medium) before the message propagates.
            departure = now
            if capacity is not None:
                if busy > departure:
                    departure = busy
                busy = departure + frame
                departure = busy
            if loss and rng.random() < loss:
                self.stats.record_dropped()
                continue
            if delay is None:
                delay = sample(rng)
            # Self-messages traverse the same transport model (as in
            # Neko): the paper's uniform 1δ-per-round step accounting.
            arrival = departure + delay + extra
            # Receiver-side serialisation on the switch downlink port.
            if switched:
                dbusy = downlink.get(dst, 0.0)
                if dbusy > arrival:
                    arrival = dbusy
                arrival += frame
                downlink[dst] = arrival
            if reliable:
                # Per-link FIFO: a message never overtakes an earlier one.
                floor = per_src.get(dst, -math.inf) + fifo_epsilon
                if floor > arrival:
                    arrival = floor
                per_src[dst] = arrival

            # (src, payload) straight to deliver_from, through
            # _deliver_observed under obs, or the envelope through
            # _deliver_to for filters (their mutations must reach the
            # receiver) and for envelope-only receivers.
            # Inlined sim.schedule_call_at: same ``now + (arrival - now)``
            # timestamp bits, minus one frame per message.
            if deliver is not None and envelope is None:
                if tracer is None:
                    fn = deliver
                    args = bare_args
                else:
                    fn = self._deliver_observed
                    args = (emit_deliver, deliver, src, dst, payload, kind, channel, msg_id)
            else:
                fn = self._deliver_to
                node = self._nodes[dst]
                if envelope is None:  # not kept: no filter built it
                    args = (node, Envelope(src, dst, payload, channel, now, 1, msg_id))
                else:
                    args = (node, envelope)
            delay = arrival - now
            if delay >= 0.0:
                heappush(queue, (now + delay, seq, fn, args, None))
                seq += 1
            else:
                sim._seq = seq
                sim.schedule_call_at(arrival, fn, args)
                seq = sim._seq
        sim._seq = seq
        if capacity is not None:
            if switched:
                self._uplink_busy[src] = busy
            else:
                self._medium_busy = busy

    def _admit(
        self, src: int, dst: int, payload: Any, channel: str, now: float,
        msg_id: int,
    ) -> "tuple[Envelope | None, float | None]":
        """Admission of one message: partition check, filters.

        Returns ``(envelope, extra delay)``.  The envelope is None unless a
        filter saw it; the extra delay is None when the message is dropped.
        """
        if self._partitions and self._partition_blocks(src, dst):
            self.stats.record_partition_blocked()
            return None, None
        if not self._filters:
            return None, 0.0
        envelope = Envelope(src, dst, payload, channel, now, msg_id=msg_id)
        extra = 0.0
        for fn in self._filters:
            verdict = fn(envelope)
            if verdict is False or verdict is None:
                self.stats.record_dropped()
                return None, None
            if isinstance(verdict, (int, float)) and verdict is not True:
                extra += float(verdict)
        return envelope, extra

    def broadcast(self, src: int, payload: Any, channel: str = RELIABLE) -> None:
        """Send ``payload`` from ``src`` to every registered node (incl. src)."""
        self.send_batch(src, self._pids_sorted, payload, channel)

    def _deliver_observed(
        self, emit: Any, deliver: Any, src: int, dst: int, payload: Any,
        kind: str, channel: str, msg_id: int,
    ) -> None:
        """Observed arrival at a ``deliver_from`` receiver: the msg-deliver
        row (``emit`` is the tracer's :attr:`~repro.sim.trace.Tracer.delivers`
        writer), with the kind counted at send time, then the envelope-free
        delivery (no :class:`Envelope` is built)."""
        emit(self.sim._now, dst, src, kind, channel, msg_id)
        deliver(src, payload)

    def _deliver_to(self, node: Any, envelope: Envelope) -> None:
        # Delivered accounting lives in Node.deliver_from (shared with the
        # envelope-free fast path); duck-typed receivers without it are
        # counted here instead.
        if not hasattr(node, "deliver_from"):
            self.stats.delivered += 1
        if self.obs_tracer is not None:
            self.obs_tracer.delivers.emit(
                self.sim._now, envelope.dst, envelope.src,
                self.stats._kind_of(envelope.payload), envelope.channel,
                envelope.msg_id,
            )
        node.deliver(envelope)

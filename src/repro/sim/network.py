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


def _lognorm(rng, mu: float, sigma: float) -> float:
    """``rng.lognormvariate(mu, sigma)`` without the two wrapper frames.

    This is stdlib ``Random.normalvariate`` (Kinderman-Monahan ratio method)
    followed by ``exp``, verbatim: the same draws from ``rng.random()`` and
    the same float expressions, so every sampled delay is bit-identical to
    the stdlib call — it just runs in one frame on the per-message hot path.
    The delay-model ``sample`` methods inline this body for the same reason;
    keep them in sync.
    """
    random = rng.random
    while True:
        u1 = random()
        u2 = 1.0 - random()
        z = NV_MAGICCONST * (u1 - 0.5) / u2
        zz = z * z / 4.0
        if zz <= -_log(u2):
            break
    return _exp(mu + z * sigma)


class DelayModel(Protocol):
    """Samples a one-way message delay in seconds.

    ``sample_many(rng, n)`` is the vectorized contract used by the fan-out
    fast path: it must consume ``rng`` in **exactly** the order and count of
    ``n`` sequential ``sample`` calls, so a batched broadcast draws the same
    delays — bit for bit — as a per-destination loop.  Models without the
    method still work; the network falls back to ``n`` ``sample`` calls.
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

    def sample(self, rng) -> float:
        # _lognorm, inlined (one frame per sampled message delay).
        random = rng.random
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            zz = z * z / 4.0
            if zz <= -_log(u2):
                break
        return _exp(self._mu + z * self.sigma)

    def sample_many(self, rng, n: int) -> list[float]:
        # n inlined _lognorm draws with the loop constants hoisted.  Same
        # draws and float expressions as n sample() calls, bit for bit.
        random = rng.random
        mu = self._mu
        sigma = self.sigma
        magic = NV_MAGICCONST
        log = _log
        exp = _exp
        out = []
        append = out.append
        for _ in range(n):
            while True:
                u1 = random()
                u2 = 1.0 - random()
                z = magic * (u1 - 0.5) / u2
                zz = z * z / 4.0
                if zz <= -log(u2):
                    break
            append(exp(mu + z * sigma))
        return out

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

    def sample(self, rng) -> float:
        # _lognorm, inlined (one frame per sampled message delay).
        random = rng.random
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            zz = z * z / 4.0
            if zz <= -_log(u2):
                break
        return self.base + _exp(self._mu + z * self.jitter_sigma)

    def sample_many(self, rng, n: int) -> list[float]:
        # n inlined _lognorm draws with the loop constants hoisted.  Same
        # draws and float expressions as n sample() calls, bit for bit.
        random = rng.random
        base = self.base
        mu = self._mu
        sigma = self.jitter_sigma
        magic = NV_MAGICCONST
        log = _log
        exp = _exp
        out = []
        append = out.append
        for _ in range(n):
            while True:
                u1 = random()
                u2 = 1.0 - random()
                z = magic * (u1 - 0.5) / u2
                zz = z * z / 4.0
                if zz <= -log(u2):
                    break
            append(base + exp(mu + z * sigma))
        return out

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
    at high throughput the per-port queues grow, both inflating delays and
    perturbing datagram interleavings — which is exactly how spontaneous
    order degrades on a real LAN as load rises.
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
        # Fan-out fast-path counters (surfaced by repro.perf).  Deliberately
        # not part of snapshot(): report JSON must stay byte-stable across
        # the batched and sequential send paths.
        self.fanout_batches = 0
        self.fanout_messages = 0
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
        # record_sent's own inner memo (kind + length), same sharing pattern.
        self._last_sent_inner: Any = None
        self._last_sent_inner_kind: str = ""
        self._last_sent_inner_len: int = 0
        # id(frozenset) -> (ref, repr length).  Estimates travel as shared
        # frozenset objects resent across rounds and processes; a frozenset's
        # iteration order (hence repr) is fixed for a given object, so the
        # length is cacheable by identity.  The kept ref pins the id.
        self._frozenset_lens: dict[int, tuple[Any, int]] = {}

    # ------------------------------------------------------------- accounting

    def record_sent(self, envelope: Envelope) -> None:
        payload = envelope.payload
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
        self.sent += 1
        self.bytes_sent += size
        channel = envelope.channel
        channels = self._channel_counts
        channels[channel] = channels.get(channel, 0) + 1
        stats = self._kind_stats.get(kind)
        if stats is None:
            stats = self._kind_stats[kind] = [0, 0]
        stats[0] += 1
        stats[1] += size

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

    def record_delivered(self) -> None:
        self.delivered += 1

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


def _kind_of(payload: Any) -> str:
    """Best-effort message-kind label used for per-type accounting."""
    unwrapped = payload
    while hasattr(unwrapped, "scope") and hasattr(unwrapped, "inner"):
        unwrapped = unwrapped.inner
    return type(unwrapped).__name__


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
        # Bound sample methods: one attribute hop per send instead of two.
        # Delay models are frozen dataclasses and never swapped after
        # construction, so binding once is safe.  sample_many is optional on
        # the DelayModel protocol; None routes send_batch through n
        # sequential sample() calls (identical draws either way).
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
        # id — including partition-blocked and filter-dropped sends, and the
        # fan-out fast path (which bulk-advances it) — so the id of the k-th
        # send is identical whether the run was batched or sequential, obs on
        # or off.  Under obs the id is stamped into msg-send/msg-deliver
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
        """Transmit ``payload`` from ``src`` to ``dst``.

        Reliable channels never drop (the system model's channels are
        reliable); they can only be severed by explicit partitions or
        filters, which tests use to model link failures.
        """
        node = self._nodes.get(dst)
        if node is None:
            raise ConfigurationError(f"unknown destination pid {dst}")
        sim = self.sim
        stats = self.stats
        now = sim._now
        # The envelope is only materialised for observers (filters, obs
        # tracing); the plain path delivers bare (src, payload).
        envelope = None
        # NetworkStats.record_sent(envelope), inlined minus the frame: this
        # is the single hottest call in a sweep.  Mirrors record_sent — keep
        # the two in sync (the accounting-exactness tests compare both
        # against the naive definition).
        if payload is stats._last_payload and payload is not None:
            kind = stats._last_kind
            size = stats._last_size
        else:
            if type(payload) is Scoped:
                overhead = _SCOPED_REPR_OVERHEAD + len(repr(payload.scope))
                inner = payload.inner
                if inner is stats._last_sent_inner and inner is not None:
                    kind = stats._last_sent_inner_kind
                    inner_len = stats._last_sent_inner_len
                else:
                    kind = stats._kind_of(inner)
                    inner_len = stats._repr_len(inner)
                    stats._last_sent_inner = inner
                    stats._last_sent_inner_kind = kind
                    stats._last_sent_inner_len = inner_len
                size = HEADER_BYTES + overhead + inner_len
            else:
                kind = stats._kind_of(payload)
                size = HEADER_BYTES + stats._repr_len(payload)
            stats._last_payload = payload
            stats._last_kind = kind
            stats._last_size = size
        stats.sent += 1
        stats.bytes_sent += size
        channels = stats._channel_counts
        channels[channel] = channels.get(channel, 0) + 1
        kind_stats = stats._kind_stats.get(kind)
        if kind_stats is None:
            kind_stats = stats._kind_stats[kind] = [0, 0]
        kind_stats[0] += 1
        kind_stats[1] += size

        msg_id = self._msg_seq
        self._msg_seq = msg_id + 1

        if self.obs_tracer is not None:
            self.obs_tracer.emit(
                now,
                src,
                KINDS.MSG_SEND,
                {"dst": dst, "kind": kind, "channel": channel, "id": msg_id},
            )

        if self._partitions and self._partition_blocks(src, dst):
            stats.record_partition_blocked()
            return

        extra = 0.0
        if self._filters:
            envelope = Envelope(src, dst, payload, channel, now, msg_id=msg_id)
            for fn in self._filters:
                verdict = fn(envelope)
                if verdict is False or verdict is None:
                    stats.record_dropped()
                    return
                if isinstance(verdict, (int, float)) and verdict is not True:
                    extra += float(verdict)

        # Sender-side serialisation: the message occupies its uplink (or the
        # shared medium) for one frame time before it can propagate.
        departure = now
        capacity = self.capacity
        if capacity is not None:
            # size is 1 unless a filter rewrote it on the envelope.
            frame = capacity.frame_time if envelope is None else capacity.frame_time * envelope.size
            if capacity.mode == "shared":
                start = departure
                busy = self._medium_busy
                if busy > start:
                    start = busy
                self._medium_busy = start + frame
            else:
                start = departure
                busy = self._uplink_busy.get(src, 0.0)
                if busy > start:
                    start = busy
                self._uplink_busy[src] = start + frame
            departure = start + frame

        if channel == DATAGRAM:
            if self.datagram_loss and self._rng.random() < self.datagram_loss:
                stats.record_dropped()
                return
            arrival = departure + self._datagram_sample(self._rng) + extra
        elif channel == RELIABLE:
            # Self-messages traverse the same transport model (as in Neko):
            # this is what makes the simulator reproduce the paper's uniform
            # communication-step accounting (1δ per round for everyone).
            arrival = departure + self._delay_sample(self._rng) + extra
        else:
            raise ConfigurationError(f"unknown channel {channel!r}")

        # Receiver-side serialisation on the switch downlink port.
        if capacity is not None and capacity.mode == "switched":
            frame = capacity.frame_time if envelope is None else capacity.frame_time * envelope.size
            busy = self._downlink_busy.get(dst, 0.0)
            if busy > arrival:
                arrival = busy
            arrival += frame
            self._downlink_busy[dst] = arrival

        if channel == RELIABLE:
            # Enforce per-link FIFO: a message never overtakes an earlier one.
            # Per-src sub-dicts avoid a tuple allocation + hash per send.
            per_src = self._last_arrival.get(src)
            if per_src is None:
                per_src = self._last_arrival[src] = {}
            floor = per_src.get(dst, -math.inf) + self.fifo_epsilon
            if floor > arrival:
                arrival = floor
            per_src[dst] = arrival

        # The destination object is resolved here (nodes are never
        # unregistered), so the arrival event dispatches straight to it:
        # bare (src, payload) to Node.deliver_from on the plain path, the
        # full envelope through _deliver_to when an observer needs it (obs
        # tracing; filters, whose mutations must reach the receiver).
        # Inlined sim.schedule_call_at: same `now + (arrival - now)` float
        # arithmetic (timestamp bits must not change), minus one frame per
        # message.  arrival >= now always holds on this path, so the
        # negative-delay guard reduces to a fallback branch.
        fn = None
        if envelope is None and self.obs_tracer is None:
            fn = self._deliver_fast.get(dst)
        if fn is not None:
            args = (src, payload)
        else:
            if envelope is None:
                envelope = Envelope(src, dst, payload, channel, now, msg_id=msg_id)
            fn = self._deliver_to
            args = (node, envelope)
        delay = arrival - now
        if delay >= 0.0:
            seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._queue, (now + delay, seq, fn, args, None))
        else:
            sim.schedule_call_at(arrival, fn, args)

    def send_batch(
        self, src: int, dsts: "tuple[int, ...] | list[int]", payload: Any,
        channel: str = RELIABLE,
    ) -> None:
        """Transmit ``payload`` from ``src`` to each pid in ``dsts``, in order.

        Byte-for-byte equivalent to ``for dst in dsts: self.send(src, dst,
        payload, channel)`` — same RNG draws in the same order, same float
        arithmetic, same heap entries — but with the per-message constant
        work hoisted out of the loop: the payload is sized once and its
        counters bulk-incremented, delays come from one
        :meth:`DelayModel.sample_many` call, the sender-side busy time is
        chained through a local, and arrivals are pushed as bare heap
        entries with :meth:`Simulator.schedule_calls_at`'s bulk arithmetic
        inlined.  Any feature that interleaves
        per message (partitions, filters, obs tracing, lossy datagrams —
        whose loss draw precedes each delay draw) falls back to the
        sequential path to keep the RNG stream identical.
        """
        n = len(dsts)
        if n == 0:
            return
        sim = self.sim
        if (
            n == 1
            or self._partitions
            or self._filters
            or self.obs_tracer is not None
            or (channel == DATAGRAM and self.datagram_loss)
            or not sim.batch
        ):
            # not sim.batch: one spec-level flag disables both halves of the
            # batched execution path (kernel cohorts and network fan-out), so
            # REPRO_KERNEL_BATCH=0 bisects against fully sequential behaviour.
            send = self.send
            for dst in dsts:
                send(src, dst, payload, channel)
            return
        if channel == RELIABLE:
            sample_many = self._delay_sample_many
            sample = self._delay_sample
            reliable = True
        elif channel == DATAGRAM:
            sample_many = self._datagram_sample_many
            sample = self._datagram_sample
            reliable = False
        else:
            raise ConfigurationError(f"unknown channel {channel!r}")
        if self._fast_sorted and dsts == self._pids_sorted:
            # Broadcast to the full sorted group (env.peers tuples compare
            # equal even when not the cached object): pre-bound methods.
            resolved = self._fast_sorted
        else:
            deliver_fast = self._deliver_fast
            resolved = []
            append_fn = resolved.append
            for dst in dsts:
                fn = deliver_fast.get(dst)
                if fn is None:
                    if dst not in self._nodes:
                        raise ConfigurationError(f"unknown destination pid {dst}")
                    # Duck-typed receiver without deliver_from: sequential
                    # sends keep its envelope-only contract intact.
                    send = self.send
                    for d in dsts:
                        send(src, d, payload, channel)
                    return
                append_fn(fn)

        stats = self.stats
        now = sim._now
        # Payload accounting, once per batch: every destination carries the
        # same payload object, so kind and size are computed once and the
        # counters bulk-incremented.  Mirrors the send() inline of
        # NetworkStats.record_sent — keep the three in sync.
        if payload is stats._last_payload and payload is not None:
            kind = stats._last_kind
            size = stats._last_size
        else:
            if type(payload) is Scoped:
                overhead = _SCOPED_REPR_OVERHEAD + len(repr(payload.scope))
                inner = payload.inner
                if inner is stats._last_sent_inner and inner is not None:
                    kind = stats._last_sent_inner_kind
                    inner_len = stats._last_sent_inner_len
                else:
                    kind = stats._kind_of(inner)
                    inner_len = stats._repr_len(inner)
                    stats._last_sent_inner = inner
                    stats._last_sent_inner_kind = kind
                    stats._last_sent_inner_len = inner_len
                size = HEADER_BYTES + overhead + inner_len
            else:
                kind = stats._kind_of(payload)
                size = HEADER_BYTES + stats._repr_len(payload)
            stats._last_payload = payload
            stats._last_kind = kind
            stats._last_size = size
        stats.sent += n
        stats.bytes_sent += size * n
        channels = stats._channel_counts
        channels[channel] = channels.get(channel, 0) + n
        kind_stats = stats._kind_stats.get(kind)
        if kind_stats is None:
            kind_stats = stats._kind_stats[kind] = [0, 0]
        kind_stats[0] += n
        kind_stats[1] += size * n
        stats.fanout_batches += 1
        stats.fanout_messages += n
        # Bulk-advance the send sequence so the fast path consumes exactly
        # the ids n sequential send() calls would (ids stay aligned whether
        # or not any particular fan-out took this path).
        self._msg_seq += n

        rng = self._rng
        if sample_many is not None:
            delays = sample_many(rng, n)
        else:
            delays = [sample(rng) for _ in range(n)]

        # Capacity: the sender-side busy time (uplink or shared medium)
        # chains through every message of the batch, so it lives in a local
        # and is written back once.  Downlinks are per destination.
        capacity = self.capacity
        switched = False
        frame = 0.0
        busy = 0.0
        downlink = None
        if capacity is not None:
            frame = capacity.frame_time  # fresh envelopes have size == 1
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
            floor_get = per_src.get
            fifo_epsilon = self.fifo_epsilon
        neg_inf = -math.inf

        # Arrival events are pushed inline with the loop constants (queue,
        # seq counter) hoisted — the bulk-entry arithmetic of
        # Simulator.schedule_calls_at minus the intermediate call list.  The
        # timestamp expression (``now + delay``) and the negative-delay
        # fallback are exactly send()'s, so heap entries are bit-identical.
        # This path runs only when no observer needs the full envelope (the
        # obs/filter gate above fell back to send()), so arrivals dispatch
        # straight to Node.deliver_from with one shared (src, payload) tuple
        # — no Envelope allocation and no per-destination args tuple.
        queue = sim._queue
        push = heappush
        args = (src, payload)
        seq = sim._seq
        try:
            for dst, dst_delay, deliver in zip(dsts, delays, resolved):
                departure = now
                if capacity is not None:
                    if busy > departure:
                        departure = busy
                    busy = departure + frame
                    departure = busy
                arrival = departure + dst_delay
                if switched:
                    dbusy = downlink.get(dst, 0.0)
                    if dbusy > arrival:
                        arrival = dbusy
                    arrival += frame
                    downlink[dst] = arrival
                if reliable:
                    floor = floor_get(dst, neg_inf) + fifo_epsilon
                    if floor > arrival:
                        arrival = floor
                    per_src[dst] = arrival
                delay = arrival - now
                if delay >= 0.0:
                    push(queue, (now + delay, seq, deliver, args, None))
                    seq += 1
                else:
                    sim._seq = seq
                    sim.schedule_call_at(arrival, deliver, args)
                    seq = sim._seq
        finally:
            sim._seq = seq
        if capacity is not None:
            if switched:
                self._uplink_busy[src] = busy
            else:
                self._medium_busy = busy

    def broadcast(self, src: int, payload: Any, channel: str = RELIABLE) -> None:
        """Send ``payload`` from ``src`` to every registered node (incl. src)."""
        self.send_batch(src, self._pids_sorted, payload, channel)

    def _deliver_to(self, node: Any, envelope: Envelope) -> None:
        # Delivered accounting lives in Node.deliver_from (shared with the
        # envelope-free fast path); duck-typed receivers without it are
        # counted here instead.
        if not hasattr(node, "deliver_from"):
            self.stats.delivered += 1
        if self.obs_tracer is not None:
            self.obs_tracer.emit(
                self.sim._now,
                envelope.dst,
                KINDS.MSG_DELIVER,
                {
                    "src": envelope.src,
                    "kind": self.stats._kind_of(envelope.payload),
                    "channel": envelope.channel,
                    "id": envelope.msg_id,
                },
            )
        node.deliver(envelope)

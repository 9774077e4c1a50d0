"""Frozen run-description dataclasses — the single way to describe a run.

A *spec* fully determines a simulated run: protocol (by registry name),
cluster shape, network model, workload and seed.  Because the simulator is
deterministic, a spec is also a *content address* for its result:
:meth:`cache_key` hashes the canonical JSON form, and the sweep engine
(:mod:`repro.engine.runner`) uses that key to skip runs whose results are
already on disk.

The family:

* :class:`ClusterSpec`   — network/fault model shared by all run kinds;
* :class:`TopologySpec`  — consensus-group layout (shard count, members per
  group, key partitioning) of a service run;
* :class:`AbcastRunSpec` — one atomic-broadcast run under an open-loop
  Poisson (or uniform) workload — one cell of a Figure-2/3 sweep;
* :class:`ConsensusRunSpec` — one consensus instance (Table-1 style runs);
* :class:`RsmRunSpec`    — one replicated-state-machine service run, from a
  single group up to a sharded multi-group deployment with cross-shard
  transactions.

Their JSON form comes from :mod:`repro.codec`: each class lists only its
omit-groups — fields written only when set, so that specs older than the
field keep their exact cache keys.  This module also pins the paper's
testbed calibration (the ``LAN*`` presets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.codec import Encoded, content_key, register_models, tagged
from repro.errors import ConfigurationError
from repro.nemesis.spec import NemesisSpec
from repro.sim.network import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    LanDelay,
    LinkCapacity,
    LogNormalDelay,
    UniformDelay,
)

__all__ = [
    "SPEC_VERSION",
    "ClusterSpec",
    "TopologySpec",
    "AbcastRunSpec",
    "ConsensusRunSpec",
    "RsmRunSpec",
    "spec_from_dict",
    "PAPER_LAN",
    "PAPER_THROUGHPUTS",
    "LAN",
    "LAN_DATAGRAM",
    "LAN_CAPACITY",
    "DEFAULT_SERVICE_TIME",
]

#: Bumped whenever spec semantics or the report layout change, so stale
#: cache entries from older code can never be mistaken for current results.
SPEC_VERSION = 1

#: The x axis of Figures 2 and 3.
PAPER_THROUGHPUTS: tuple[int, ...] = (20, 50, 80, 100, 150, 200, 250, 300, 350, 400, 450, 500)

#: One-way delay of the TCP path on the paper's testbed: kernel, JVM and
#: switch traversal dominate on a 2006-era stack — δ ≈ 0.44 ms, mild jitter.
LAN = LanDelay(base=400e-6, jitter_mean=40e-6, jitter_sigma=0.8)

#: The WAB oracle runs on raw UDP: lower base latency than the TCP path but
#: a much heavier jitter tail (no flow control; bursts hit socket buffers).
#: The tail is what breaks spontaneous order once broadcasts overlap.
LAN_DATAGRAM = LanDelay(base=300e-6, jitter_mean=150e-6, jitter_sigma=1.7)

#: Per-port serialisation of the 100 Mb switch: a protocol message occupies
#: a port for ~50 µs.  This is the load-dependent term that bends the
#: latency curves upward and widens the reorder window as load rises.
LAN_CAPACITY = LinkCapacity(frame_time=50e-6, mode="switched")

#: CPU cost per handled event on the 2.8 GHz workstations.
DEFAULT_SERVICE_TIME = 20e-6


register_models(
    ConstantDelay,
    UniformDelay,
    ExponentialDelay,
    LogNormalDelay,
    LanDelay,
    LinkCapacity,
)


# ----------------------------------------------------------------------- specs


@dataclass(frozen=True)
class ClusterSpec(Encoded):
    """Network and fault model of a simulated cluster (group size excluded —
    that belongs to the run).  ``None`` delays mean the simulator defaults.

    ``datagram_*`` and ``capacity`` only matter for runs whose protocols use
    the datagram channel / a finite-bandwidth fabric; consensus runs on the
    plain reliable network ignore them.
    """

    delay: DelayModel | None = None
    datagram_delay: DelayModel | None = None
    datagram_loss: float = 0.0
    capacity: LinkCapacity | None = None
    service_time: float = 0.0
    detection_delay: float = 0.0
    initially_crashed: tuple[int, ...] = ()


#: The paper's Figure-2/3 testbed: TCP + UDP LAN models, switched 100 Mb
#: fabric, 20 µs/event CPUs.
PAPER_LAN = ClusterSpec(
    delay=LAN,
    datagram_delay=LAN_DATAGRAM,
    capacity=LAN_CAPACITY,
    service_time=DEFAULT_SERVICE_TIME,
)


#: Key-partitioning strategies understood by the shard router.
PARTITIONERS = ("hash", "range")


@dataclass(frozen=True)
class TopologySpec(Encoded):
    """How a service run is laid out over consensus groups.

    The topology is the *first* question a production deployment answers —
    how many independent replication groups (shards), how many members each,
    and how the key space maps onto them — so it is a first-class, frozen,
    content-addressed part of the run description rather than loose keyword
    arguments.

    ``groups`` is the shard count; each shard runs its own instance of the
    run's abcast protocol over ``group_size`` replicas (``None`` inherits
    the run spec's ``n``, keeping single-group specs unchanged).
    ``partitioner`` maps keys to shards: ``"hash"`` spreads keys by a stable
    CRC-32, ``"range"`` splits the ordered key space into contiguous slices.

    The default topology (one group, inherited size, hash partitioning) is
    *omitted* from spec dicts entirely, so every pre-topology cache key and
    report document is preserved byte-for-byte.
    """

    groups: int = 1
    group_size: int | None = None
    partitioner: str = "hash"

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise ConfigurationError("topology needs at least one group")
        if self.group_size is not None and self.group_size < 2:
            raise ConfigurationError("a consensus group needs at least two members")
        if self.partitioner not in PARTITIONERS:
            raise ConfigurationError(
                f"unknown partitioner {self.partitioner!r}; choices: {PARTITIONERS}"
            )

    @property
    def is_default(self) -> bool:
        return self == TopologySpec()

    def size_for(self, n: int) -> int:
        """Members per group, with ``n`` as the inherited default."""
        return self.group_size if self.group_size is not None else n


def _validate_obs(spec: Any) -> None:
    if spec.obs_metrics_interval < 0:
        raise ConfigurationError("obs_metrics_interval must be >= 0")
    if spec.obs_flight_recorder < 0:
        raise ConfigurationError("obs_flight_recorder must be >= 0")


#: Why a parallel sharded run takes no metrics sampler or flight recorder:
#: both read one kernel and one tracer, and each shard runs its own kernel
#: in its own process, whose records reach the parent only once it is done.
PARALLEL_OBS_ERROR = (
    "parallel execution supports obs detail tracing only; disable "
    "obs_metrics_interval / obs_flight_recorder or run serial"
)

_OBS = ("obs", "obs_metrics_interval", "obs_flight_recorder")


class _RunSpec(Encoded):
    """Common base of the run specs: ``kind``-tagged, content-addressed;
    fields added after the first cache keys sit in omit-groups.

    A spec derives its canonical dict and key once and keeps both in its
    ``__dict__`` (outside the dataclass fields, so equality, hashing and
    ``repr`` ignore them).  That is sound because every typed field holds a
    frozen dataclass, a tuple or a scalar, and a spec that does not hash (a
    mutable value in an ``Any`` field) keeps no memo; ``dataclasses.replace``
    builds a new object with no memo, and a pickled spec carries its memo.
    """

    tag = "kind"
    tag_label = "spec kind"
    omit = (_OBS, ("batch",), ("nemesis",))

    def _canonical(self) -> tuple[dict, str]:
        memo = self.__dict__.get("_canonical_memo")
        if memo is None:
            data = self.to_dict()
            memo = (data, content_key({"version": SPEC_VERSION, **data}))
            try:
                hash(self)
            except TypeError:
                # A mutable value inside an untyped field (a list among
                # consensus proposals decoded from JSON): derive each time.
                return memo
            self.__dict__["_canonical_memo"] = memo
        return memo

    def cache_key(self) -> str:
        """Stable content address of this run's result."""
        return self._canonical()[1]

    def matches(self, data: Any) -> bool:
        """Whether ``data`` is this spec's canonical dict (``to_dict()``)."""
        return data == self._canonical()[0]


@dataclass(frozen=True)
class AbcastRunSpec(_RunSpec):
    """One atomic-broadcast run: protocol × cluster × workload × seed.

    The measurement window is ``[warmup, duration]``; the simulation horizon
    is ``duration + drain`` so in-flight messages can finish.  Workload
    payloads must stay JSON-representable for the spec to be hashable.
    """

    kind = "abcast"

    protocol: str
    rate: float
    duration: float
    n: int = 4
    seed: int = 0
    warmup: float = 0.0
    drain: float = 1.5
    workload: str = "poisson"
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    crash_at: tuple[tuple[int, float], ...] = ()
    check: bool = True
    require_all_delivered: bool = True
    max_events: int | None = None
    #: Observability (see :mod:`repro.obs`): detailed trace kinds, metrics
    #: sampling interval (virtual seconds, 0 = off) and flight-recorder
    #: capacity (records per pid, 0 = off).
    obs: bool = False
    obs_metrics_interval: float = 0.0
    obs_flight_recorder: int = 0
    #: The kernel's sorted-cohort drain (False = serial loop; results are
    #: byte-identical either way, this is an A/B debugging escape hatch).
    batch: bool = True
    #: Optional fault schedule (see :mod:`repro.nemesis`); serialized only
    #: when non-empty, so fault-free specs keep their exact cache keys.
    nemesis: NemesisSpec | None = None

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.duration <= 0:
            raise ConfigurationError("rate and duration must be positive")
        if self.workload not in ("poisson", "uniform"):
            raise ConfigurationError(f"unknown workload {self.workload!r}")
        _validate_obs(self)

    @property
    def horizon(self) -> float:
        return self.duration + self.drain


@dataclass(frozen=True)
class ConsensusRunSpec(_RunSpec):
    """One consensus instance; process ``i`` proposes ``proposals[i]``."""

    kind = "consensus"

    protocol: str
    proposals: tuple[Any, ...]
    seed: int = 0
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    crash_at: tuple[tuple[int, float], ...] = ()
    propose_at: tuple[tuple[int, float], ...] = ()
    horizon: float = 60.0
    check: bool = True
    require_all_alive_decide: bool = True
    obs: bool = False
    obs_metrics_interval: float = 0.0
    obs_flight_recorder: int = 0
    batch: bool = True
    nemesis: NemesisSpec | None = None

    def __post_init__(self) -> None:
        if len(self.proposals) < 2:
            raise ConfigurationError("consensus needs at least two processes")
        _validate_obs(self)

    @property
    def n(self) -> int:
        return len(self.proposals)


@dataclass(frozen=True)
class RsmRunSpec(_RunSpec):
    """One replicated-state-machine service run (see :mod:`repro.rsm`).

    ``clients`` sessions drive ``n`` replicas of a KV state machine over the
    named abcast protocol.  ``rate`` is the aggregate client op rate for the
    open-loop workload; for the closed-loop workload it sets the per-session
    think time (``clients / rate``) so the offered load is comparable.
    ``crash_at`` crashes replicas mid-run; each crashed replica rejoins as a
    learner ``recover_after`` seconds later (``None`` disables recovery),
    restoring its latest snapshot and replaying the suffix from survivors.

    ``topology`` shards the service over many independent consensus groups
    (:class:`TopologySpec`): ``n`` then means *members per group* and
    replica pids run ``0 .. groups×group_size-1`` (``crash_at`` names those
    global pids).  ``txn_clients``/``txn_rate`` add closed-loop transaction
    sessions issuing multi-key cross-shard transactions (``txn_keys`` keys
    each) via two-phase commit over the groups.  The topology and
    transaction fields form one omit-group, ``parallel``/``workers``
    another, so single-group serial specs keep their exact pre-shard cache
    keys and JSON.
    """

    kind = "rsm"
    omit = (("topology", "txn_clients", "txn_rate", "txn_keys"), _OBS, ("batch",),
            ("parallel", "workers"), ("nemesis",))

    protocol: str
    rate: float
    duration: float
    n: int = 4
    clients: int = 8
    seed: int = 0
    warmup: float = 0.0
    drain: float = 1.5
    workload: str = "open"
    keys: int = 32
    batch_max: int = 8
    batch_delay: float = 2e-3
    snapshot_every: int = 25
    catchup_interval: float = 0.02
    failover_delay: float = 5e-3
    recover_after: float | None = 0.25
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    crash_at: tuple[tuple[int, float], ...] = ()
    check: bool = True
    max_events: int | None = None
    topology: TopologySpec = field(default_factory=TopologySpec)
    txn_clients: int = 0
    txn_rate: float = 0.0
    txn_keys: int = 2
    obs: bool = False
    obs_metrics_interval: float = 0.0
    obs_flight_recorder: int = 0
    #: Kernel-level batched execution (unrelated to the RSM's command
    #: batching knobs ``batch_max``/``batch_delay`` above).
    batch: bool = True
    #: Parallel execution: one kernel per shard group (see
    #: :mod:`repro.rsm.parallel`).  ``workers`` is the worker-process count
    #: (0 means "decide at run time": 1 process).  Both serialize only when
    #: set, so existing specs keep their exact cache keys.
    parallel: bool = False
    workers: int = 0
    nemesis: NemesisSpec | None = None

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.duration <= 0:
            raise ConfigurationError("rate and duration must be positive")
        if self.workload not in ("open", "closed"):
            raise ConfigurationError(f"unknown workload {self.workload!r}")
        _validate_obs(self)
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.workers and not self.parallel:
            raise ConfigurationError(
                "workers is set but parallel is off; set parallel=True "
                "(or drop workers)"
            )
        if self.parallel and self.txn_clients > 0:
            raise ConfigurationError(
                "parallel execution requires txn_clients == 0: cross-shard "
                "2PC sessions would span partition boundaries"
            )
        if (
            self.parallel
            and self.is_sharded
            and (self.obs_metrics_interval > 0 or self.obs_flight_recorder > 0)
        ):
            raise ConfigurationError(PARALLEL_OBS_ERROR)
        if self.n < 2:
            raise ConfigurationError("an RSM service needs at least two replicas")
        if self.clients < 1:
            raise ConfigurationError("need at least one client session")
        if (self.txn_clients > 0) != (self.txn_rate > 0):
            raise ConfigurationError(
                "txn_clients and txn_rate must be set together (both > 0)"
            )
        if self.txn_keys < 1:
            raise ConfigurationError("transactions need at least one key")
        if not self.is_sharded and self.topology.group_size not in (None, self.n):
            raise ConfigurationError(
                f"an unsharded run has n={self.n} replicas; "
                f"topology.group_size={self.topology.group_size} would be ignored "
                "(set it only with groups > 1 or txn_clients > 0)"
            )
        if self.topology.groups > self.keys:
            raise ConfigurationError(
                f"{self.topology.groups} shards cannot partition {self.keys} keys"
            )
        group_size = self.topology.size_for(self.n)
        if group_size < 2:
            raise ConfigurationError("an RSM service needs at least two replicas")
        crashes_per_shard: dict[int, int] = {}
        for pid, _ in self.crash_at:
            if not 0 <= pid < self.total_replicas:
                raise ConfigurationError(f"crash_at names unknown replica {pid}")
            shard = pid // group_size
            crashes_per_shard[shard] = crashes_per_shard.get(shard, 0) + 1
        for shard, count in crashes_per_shard.items():
            if count >= group_size:
                raise ConfigurationError(
                    f"cannot crash every replica of shard {shard}"
                )

    @property
    def group_size(self) -> int:
        """Replicas per consensus group (``topology.group_size`` or ``n``)."""
        return self.topology.size_for(self.n)

    @property
    def total_replicas(self) -> int:
        """Replicas across all groups (shards × group size)."""
        return self.topology.groups * self.group_size

    @property
    def is_sharded(self) -> bool:
        """True when the run needs the multi-group execution path."""
        return self.topology.groups > 1 or self.txn_clients > 0

    @property
    def horizon(self) -> float:
        return self.duration + self.drain


_decode_spec = tagged((AbcastRunSpec, ConsensusRunSpec, RsmRunSpec))


def spec_from_dict(data: dict) -> "AbcastRunSpec | ConsensusRunSpec | RsmRunSpec":
    """Rebuild a spec from its JSON dict form (inverse of ``to_dict``)."""
    return _decode_spec(data)

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

This module also pins the paper's testbed calibration (the ``LAN*``
presets previously owned by :mod:`repro.workload.experiment`, which still
re-exports them).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

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


# --------------------------------------------------------- model serialisation

_MODEL_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        ConstantDelay,
        UniformDelay,
        ExponentialDelay,
        LogNormalDelay,
        LanDelay,
        LinkCapacity,
    )
}


def _encode_model(model: Any) -> dict | None:
    """Encode a delay/capacity model as ``{"type": ..., **fields}``."""
    if model is None:
        return None
    name = type(model).__name__
    if name not in _MODEL_TYPES:
        raise ConfigurationError(
            f"cannot serialise model {name!r}; specs accept: {sorted(_MODEL_TYPES)}"
        )
    return {"type": name, **dataclasses.asdict(model)}


def _decode_model(data: dict | None) -> Any:
    if data is None:
        return None
    fields = dict(data)
    name = fields.pop("type")
    cls = _MODEL_TYPES.get(name)
    if cls is None:
        raise ConfigurationError(f"unknown model type {name!r} in spec")
    return cls(**fields)


# ----------------------------------------------------------------------- specs


@dataclass(frozen=True)
class ClusterSpec:
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

    def to_dict(self) -> dict:
        return {
            "delay": _encode_model(self.delay),
            "datagram_delay": _encode_model(self.datagram_delay),
            "datagram_loss": self.datagram_loss,
            "capacity": _encode_model(self.capacity),
            "service_time": self.service_time,
            "detection_delay": self.detection_delay,
            "initially_crashed": list(self.initially_crashed),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        return cls(
            delay=_decode_model(data["delay"]),
            datagram_delay=_decode_model(data["datagram_delay"]),
            datagram_loss=data["datagram_loss"],
            capacity=_decode_model(data["capacity"]),
            service_time=data["service_time"],
            detection_delay=data["detection_delay"],
            initially_crashed=tuple(data["initially_crashed"]),
        )


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
class TopologySpec:
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

    def to_dict(self) -> dict:
        return {
            "groups": self.groups,
            "group_size": self.group_size,
            "partitioner": self.partitioner,
        }

    @classmethod
    def from_dict(cls, data: dict | None) -> "TopologySpec":
        if data is None:
            return cls()
        return cls(
            groups=data["groups"],
            group_size=data["group_size"],
            partitioner=data["partitioner"],
        )


def _append_obs(spec: Any, body: dict) -> dict:
    """Serialize the observability field group only when any is non-default.

    Keeping the keys out of the default serialization preserves cache keys
    and report JSON for every pre-observability spec byte-for-byte.
    """
    if spec.obs or spec.obs_metrics_interval or spec.obs_flight_recorder:
        body["obs"] = spec.obs
        body["obs_metrics_interval"] = spec.obs_metrics_interval
        body["obs_flight_recorder"] = spec.obs_flight_recorder
    return body


def _validate_obs(spec: Any) -> None:
    if spec.obs_metrics_interval < 0:
        raise ConfigurationError("obs_metrics_interval must be >= 0")
    if spec.obs_flight_recorder < 0:
        raise ConfigurationError("obs_flight_recorder must be >= 0")


def _append_batch(spec: Any, body: dict) -> dict:
    """Serialize the kernel-batching flag only when it departs from True.

    ``batch`` selects the sorted-cohort kernel drain and the network fan-out
    fast path; both produce byte-identical results to the serial loops, so
    the default stays out of the dict and every pre-batching spec keeps its
    exact cache key and JSON form.
    """
    if not spec.batch:
        body["batch"] = False
    return body


def _append_nemesis(spec: Any, body: dict) -> dict:
    """Serialize the nemesis schedule only when one is attached (non-empty).

    A spec without faults keeps its exact pre-nemesis dict form, cache key
    and report JSON — the ``nemesis`` key simply never appears.
    """
    if spec.nemesis:
        body["nemesis"] = spec.nemesis.to_dict()
    return body


def _decode_nemesis(data: dict) -> NemesisSpec | None:
    raw = data.get("nemesis")
    if not raw or not raw.get("ops"):
        return None
    return NemesisSpec.from_dict(raw)


def _hash_payload(kind: str, body: dict) -> str:
    canonical = json.dumps(
        {"version": SPEC_VERSION, "kind": kind, **body},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class AbcastRunSpec:
    """One atomic-broadcast run: protocol × cluster × workload × seed.

    The measurement window is ``[warmup, duration]``; the simulation horizon
    is ``duration + drain`` so in-flight messages can finish.  Workload
    payloads must stay JSON-representable for the spec to be hashable.
    """

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
    #: Kernel/network batched execution (False = serial loops; results are
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

    def to_dict(self) -> dict:
        body = {
            "kind": "abcast",
            "protocol": self.protocol,
            "rate": self.rate,
            "duration": self.duration,
            "n": self.n,
            "seed": self.seed,
            "warmup": self.warmup,
            "drain": self.drain,
            "workload": self.workload,
            "cluster": self.cluster.to_dict(),
            "crash_at": [list(item) for item in self.crash_at],
            "check": self.check,
            "require_all_delivered": self.require_all_delivered,
            "max_events": self.max_events,
        }
        return _append_nemesis(self, _append_batch(self, _append_obs(self, body)))

    @classmethod
    def from_dict(cls, data: dict) -> "AbcastRunSpec":
        return cls(
            protocol=data["protocol"],
            rate=data["rate"],
            duration=data["duration"],
            n=data["n"],
            seed=data["seed"],
            warmup=data["warmup"],
            drain=data["drain"],
            workload=data["workload"],
            cluster=ClusterSpec.from_dict(data["cluster"]),
            crash_at=tuple((pid, at) for pid, at in data["crash_at"]),
            check=data["check"],
            require_all_delivered=data["require_all_delivered"],
            max_events=data["max_events"],
            obs=data.get("obs", False),
            obs_metrics_interval=data.get("obs_metrics_interval", 0.0),
            obs_flight_recorder=data.get("obs_flight_recorder", 0),
            batch=data.get("batch", True),
            nemesis=_decode_nemesis(data),
        )

    def cache_key(self) -> str:
        """Stable content address of this run's result."""
        body = self.to_dict()
        del body["kind"]
        return _hash_payload("abcast", body)


@dataclass(frozen=True)
class ConsensusRunSpec:
    """One consensus instance; process ``i`` proposes ``proposals[i]``."""

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

    def to_dict(self) -> dict:
        body = {
            "kind": "consensus",
            "protocol": self.protocol,
            "proposals": list(self.proposals),
            "seed": self.seed,
            "cluster": self.cluster.to_dict(),
            "crash_at": [list(item) for item in self.crash_at],
            "propose_at": [list(item) for item in self.propose_at],
            "horizon": self.horizon,
            "check": self.check,
            "require_all_alive_decide": self.require_all_alive_decide,
        }
        return _append_nemesis(self, _append_batch(self, _append_obs(self, body)))

    @classmethod
    def from_dict(cls, data: dict) -> "ConsensusRunSpec":
        return cls(
            protocol=data["protocol"],
            proposals=tuple(data["proposals"]),
            seed=data["seed"],
            cluster=ClusterSpec.from_dict(data["cluster"]),
            crash_at=tuple((pid, at) for pid, at in data["crash_at"]),
            propose_at=tuple((pid, at) for pid, at in data["propose_at"]),
            horizon=data["horizon"],
            check=data["check"],
            require_all_alive_decide=data["require_all_alive_decide"],
            obs=data.get("obs", False),
            obs_metrics_interval=data.get("obs_metrics_interval", 0.0),
            obs_flight_recorder=data.get("obs_flight_recorder", 0),
            batch=data.get("batch", True),
            nemesis=_decode_nemesis(data),
        )

    def cache_key(self) -> str:
        body = self.to_dict()
        del body["kind"]
        return _hash_payload("consensus", body)


@dataclass(frozen=True)
class RsmRunSpec:
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
    each) via two-phase commit over the groups.  All of these serialize
    only when non-default, so single-group specs keep their exact pre-shard
    cache keys and JSON.
    """

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

    def to_dict(self) -> dict:
        body = {
            "kind": "rsm",
            "protocol": self.protocol,
            "rate": self.rate,
            "duration": self.duration,
            "n": self.n,
            "clients": self.clients,
            "seed": self.seed,
            "warmup": self.warmup,
            "drain": self.drain,
            "workload": self.workload,
            "keys": self.keys,
            "batch_max": self.batch_max,
            "batch_delay": self.batch_delay,
            "snapshot_every": self.snapshot_every,
            "catchup_interval": self.catchup_interval,
            "failover_delay": self.failover_delay,
            "recover_after": self.recover_after,
            "cluster": self.cluster.to_dict(),
            "crash_at": [list(item) for item in self.crash_at],
            "check": self.check,
            "max_events": self.max_events,
        }
        # The topology field group serializes only when any member departs
        # from the defaults: single-group specs keep their exact pre-shard
        # dict form, cache keys and report JSON.
        if not (
            self.topology.is_default
            and self.txn_clients == 0
            and self.txn_rate == 0.0
            and self.txn_keys == 2
        ):
            body["topology"] = self.topology.to_dict()
            body["txn_clients"] = self.txn_clients
            body["txn_rate"] = self.txn_rate
            body["txn_keys"] = self.txn_keys
        # Parallel execution is a different (still deterministic) sample of
        # the workload — per-shard RNG streams instead of one shared kernel
        # stream — so it must cache separately; serial specs keep their
        # exact pre-parallel dict form and cache keys.
        if self.parallel or self.workers:
            body["parallel"] = self.parallel
            body["workers"] = self.workers
        return _append_nemesis(self, _append_batch(self, _append_obs(self, body)))

    @classmethod
    def from_dict(cls, data: dict) -> "RsmRunSpec":
        return cls(
            protocol=data["protocol"],
            rate=data["rate"],
            duration=data["duration"],
            n=data["n"],
            clients=data["clients"],
            seed=data["seed"],
            warmup=data["warmup"],
            drain=data["drain"],
            workload=data["workload"],
            keys=data["keys"],
            batch_max=data["batch_max"],
            batch_delay=data["batch_delay"],
            snapshot_every=data["snapshot_every"],
            catchup_interval=data["catchup_interval"],
            failover_delay=data["failover_delay"],
            recover_after=data["recover_after"],
            cluster=ClusterSpec.from_dict(data["cluster"]),
            crash_at=tuple((pid, at) for pid, at in data["crash_at"]),
            check=data["check"],
            max_events=data["max_events"],
            topology=TopologySpec.from_dict(data.get("topology")),
            txn_clients=data.get("txn_clients", 0),
            txn_rate=data.get("txn_rate", 0.0),
            txn_keys=data.get("txn_keys", 2),
            obs=data.get("obs", False),
            obs_metrics_interval=data.get("obs_metrics_interval", 0.0),
            obs_flight_recorder=data.get("obs_flight_recorder", 0),
            batch=data.get("batch", True),
            parallel=data.get("parallel", False),
            workers=data.get("workers", 0),
            nemesis=_decode_nemesis(data),
        )

    def cache_key(self) -> str:
        body = self.to_dict()
        del body["kind"]
        return _hash_payload("rsm", body)


def spec_from_dict(data: dict) -> "AbcastRunSpec | ConsensusRunSpec | RsmRunSpec":
    """Rebuild a spec from its JSON dict form (inverse of ``to_dict``)."""
    kind = data.get("kind")
    if kind == "abcast":
        return AbcastRunSpec.from_dict(data)
    if kind == "consensus":
        return ConsensusRunSpec.from_dict(data)
    if kind == "rsm":
        return RsmRunSpec.from_dict(data)
    raise ConfigurationError(f"unknown spec kind {kind!r}")

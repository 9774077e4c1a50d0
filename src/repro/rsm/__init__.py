"""repro.rsm — a replicated state-machine service layer on atomic broadcast.

The paper motivates atomic broadcast as "the core of state machine
replication"; this package closes that loop.  It turns any registered abcast
protocol (C-Abcast over L/P-Consensus, WABCast, Multi-Paxos) into a fault-
tolerant KV service with the full production shape:

* :mod:`repro.rsm.machine` — the deterministic :class:`StateMachine`
  contract and the reference :class:`KvStore`;
* :mod:`repro.rsm.session` — (session, seq) request identity and the
  server-side :class:`DedupTable` (exactly-once across retries);
* :mod:`repro.rsm.batcher` — size/time-triggered command batching;
* :mod:`repro.rsm.replica` — :class:`RsmReplica`: apply in a-delivery
  order, snapshot + compact, rejoin after a crash as a learner;
* :mod:`repro.rsm.client` — open/closed-loop session drivers with
  crash failover;
* :mod:`repro.rsm.runner` — :func:`run_rsm` executing an
  :class:`~repro.engine.spec.RsmRunSpec` end to end on one or many
  consensus groups, with the service guarantees (exactly-once, session
  order, log agreement, linearizability, recovery convergence, and for
  sharded runs cross-shard serializability) checked on every run;
* :mod:`repro.rsm.shard` — what a sharded run adds: the
  :class:`ShardRouter` keyspace partition and cross-shard transactions via
  2PC (:class:`TxnDriver`).
"""

from repro.rsm.batcher import BATCH_TIMER, Batcher
from repro.rsm.client import (
    DEFAULT_MIX,
    CommandStream,
    ServingSet,
    SessionDriver,
    ShardKeyStream,
)
from repro.rsm.machine import (
    OPS,
    TXN_OPS,
    Command,
    KvStore,
    StateMachine,
    TxnCommand,
    TxnKvStore,
)
from repro.rsm.replica import (
    CATCHUP_TIMER,
    SNAPSHOT_KEY,
    SUBMIT_TIMER,
    AppliedEntry,
    CatchUpReply,
    CatchUpRequest,
    RsmReplica,
)
from repro.rsm.runner import RsmRunResult, run_rsm, service_metrics
from repro.rsm.session import DedupTable, Request
from repro.rsm.shard import ShardRouter, TxnDriver, TxnRecord

__all__ = [
    "Command",
    "StateMachine",
    "KvStore",
    "OPS",
    "TxnCommand",
    "TxnKvStore",
    "TXN_OPS",
    "Request",
    "DedupTable",
    "Batcher",
    "BATCH_TIMER",
    "RsmReplica",
    "AppliedEntry",
    "CatchUpRequest",
    "CatchUpReply",
    "CATCHUP_TIMER",
    "SUBMIT_TIMER",
    "SNAPSHOT_KEY",
    "CommandStream",
    "SessionDriver",
    "ServingSet",
    "DEFAULT_MIX",
    "RsmRunResult",
    "run_rsm",
    "service_metrics",
    "ShardRouter",
    "ShardKeyStream",
    "TxnDriver",
    "TxnRecord",
]

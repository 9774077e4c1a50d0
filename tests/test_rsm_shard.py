"""Sharded multi-group RSM: partitioning, 2PC transactions, serializability.

Covers the :mod:`repro.rsm.shard` layer end to end — the key partitioners,
plain sharded runs (per-shard linearizability + convergence), cross-shard
transactions through the full prepare/decide/finish 2PC pipeline, crash
recovery of coordinators and participants, the cross-shard serializability
checker on hand-crafted histories, and the shard-axis sweep grid through
the warm worker pool.

Crash scenarios use ``group_size=4`` with ``PAPER_LAN``: one-step consensus
needs ``n > 3f``, so an n=3 group cannot survive any crash, and the default
:class:`ClusterSpec` has no failure detection at all.
"""

import pytest

from repro.engine import PAPER_LAN, RsmRunSpec, TopologySpec, spec_from_dict
from repro.errors import ConfigurationError, SerializabilityViolation
from repro.harness.checkers import check_cross_shard_serializable
from repro.rsm import (
    ShardKeyStream,
    ShardRouter,
    TxnCommand,
    TxnKvStore,
)
from repro.rsm.runner import run_rsm, service_metrics


def sharded_spec(**overrides):
    """A small 2-shard × n=3 spec; overrides replace any field."""
    base = dict(
        protocol="cabcast-l",
        rate=120.0,
        duration=0.4,
        n=3,
        clients=4,
        seed=7,
        cluster=PAPER_LAN,
        topology=TopologySpec(groups=2),
    )
    base.update(overrides)
    return RsmRunSpec(**base)


class TestShardRouter:
    @pytest.mark.parametrize("groups", [1, 2, 4, 8])
    def test_hash_covers_every_shard(self, groups):
        router = ShardRouter(groups=groups, keys=32)
        assert sorted(router.shard_of(f"k{i}") for i in range(32)) == sorted(
            shard for shard in range(groups) for _ in router.keys_for(shard)
        )
        for shard in range(groups):
            assert router.keys_for(shard)

    def test_range_banding_is_contiguous(self):
        router = ShardRouter(groups=4, keys=16, partitioner="range")
        for shard in range(4):
            indices = sorted(int(k[1:]) for k in router.keys_for(shard))
            assert indices == list(range(indices[0], indices[-1] + 1))
        # Bands tile the key space in order.
        assert router.shard_of("k0") == 0
        assert router.shard_of("k15") == 3

    def test_routing_matches_slices(self):
        router = ShardRouter(groups=4, keys=32)
        for shard in range(4):
            for key in router.keys_for(shard):
                assert router.shard_of(key) == shard

    def test_empty_shard_rejected(self):
        # crc32 leaves shard 0 empty for this tiny keyspace; the router must
        # refuse rather than silently idle a whole consensus group.
        with pytest.raises(ConfigurationError):
            ShardRouter(groups=2, keys=4)

    def test_key_stream_draws_only_owned_keys(self):
        router = ShardRouter(groups=2, keys=32)
        owned = set(router.keys_for(1))
        stream = ShardKeyStream(
            session=3, seed=99, keys=32, slice_keys=router.keys_for(1)
        )
        for seq in range(50):
            command = stream.next(seq)
            if command.key is not None:
                assert command.key in owned


class TestTxnKvStore:
    def test_prepare_commit_applies_writes(self):
        store = TxnKvStore()
        assert store.apply(TxnCommand("txn-prepare", "t1", writes=(("a", "1"),))) == "yes"
        assert store.apply(TxnCommand("txn-commit", "t1")) == "committed"
        assert store.apply(TxnCommand("txn-prepare", "t2", writes=(("a", "2"),))) == "yes"
        assert store.apply(TxnCommand("txn-abort", "t2")) == "aborted"
        # Committed write visible, aborted write discarded.
        assert ("a" in store.snapshot()["data"]) and store.snapshot()["data"]["a"] == "1"

    def test_conflicting_prepare_votes_no(self):
        store = TxnKvStore()
        store.apply(TxnCommand("txn-prepare", "t1", writes=(("a", "1"),)))
        assert store.apply(TxnCommand("txn-prepare", "t2", writes=(("a", "2"),))) == "conflict"
        store.apply(TxnCommand("txn-commit", "t1"))
        # Lock released by the commit: t2 can prepare again.
        assert store.apply(TxnCommand("txn-prepare", "t2", writes=(("a", "2"),))) == "yes"

    def test_duplicate_prepare_is_idempotent(self):
        store = TxnKvStore()
        command = TxnCommand("txn-prepare", "t1", writes=(("a", "1"),))
        assert store.apply(command) == "yes"
        assert store.apply(command) == "yes"

    def test_decision_is_sticky(self):
        store = TxnKvStore()
        store.apply(TxnCommand("txn-decide", "t1", decision="commit"))
        store.apply(TxnCommand("txn-decide", "t1", decision="abort"))
        assert store.decision_of("t1") == "commit"

    def test_snapshot_round_trips_txn_state(self):
        store = TxnKvStore()
        store.apply(TxnCommand("txn-prepare", "t1", writes=(("a", "1"),)))
        store.apply(TxnCommand("txn-decide", "t1", decision="commit"))
        clone = TxnKvStore()
        clone.install(store.snapshot())
        assert clone.digest() == store.digest()
        assert clone.apply(TxnCommand("txn-commit", "t1")) == "committed"


class TestSerializabilityChecker:
    def test_consistent_orders_pass(self):
        check_cross_shard_serializable(
            {
                0: [("t1", ["a"]), ("t2", ["a"])],
                1: [("t1", ["x"]), ("t2", ["x"])],
            }
        )

    def test_cycle_raises(self):
        # Shard 0 orders t1 < t2 on key "a"; shard 1 orders t2 < t1 on key
        # "x": no serial order satisfies both.
        with pytest.raises(SerializabilityViolation):
            check_cross_shard_serializable(
                {
                    0: [("t1", ["a"]), ("t2", ["a"])],
                    1: [("t2", ["x"]), ("t1", ["x"])],
                }
            )

    def test_disjoint_keys_commute(self):
        # Opposite orders are fine when the transactions share no keys.
        check_cross_shard_serializable(
            {
                0: [("t1", ["a"]), ("t2", ["b"])],
                1: [("t2", ["y"]), ("t1", ["x"])],
            }
        )

    def test_duplicate_commit_raises(self):
        with pytest.raises(SerializabilityViolation):
            check_cross_shard_serializable({0: [("t1", ["a"]), ("t1", ["a"])]})

    def test_three_txn_cycle_raises(self):
        with pytest.raises(SerializabilityViolation):
            check_cross_shard_serializable(
                {
                    0: [("t1", ["a"]), ("t2", ["a"])],
                    1: [("t2", ["b"]), ("t3", ["b"])],
                    2: [("t3", ["c"]), ("t1", ["c"])],
                }
            )


class TestTopologyCompat:
    def test_from_dict_none_is_default(self):
        assert TopologySpec.from_dict(None) == TopologySpec()
        assert TopologySpec().is_default

    def test_round_trip(self):
        topology = TopologySpec(groups=4, group_size=5, partitioner="range")
        assert TopologySpec.from_dict(topology.to_dict()) == topology

    def test_group_size_inherits_n(self):
        assert TopologySpec(groups=2).size_for(5) == 5
        assert TopologySpec(groups=2, group_size=3).size_for(5) == 3

    def test_pre_topology_spec_dict_still_loads(self):
        # A spec dict written before TopologySpec existed has no topology
        # group; it must load as a default-topology spec.
        plain = RsmRunSpec(
            protocol="cabcast-l", rate=100.0, duration=0.3, n=3, clients=4
        )
        body = plain.to_dict()
        assert "topology" not in body
        loaded = spec_from_dict(body)
        assert loaded == plain and loaded.topology.is_default

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(groups=0)
        with pytest.raises(ConfigurationError):
            TopologySpec(partitioner="modulo")
        with pytest.raises(ConfigurationError):
            RsmRunSpec(
                protocol="cabcast-l",
                rate=100.0,
                duration=0.3,
                n=3,
                clients=4,
                txn_clients=2,  # txn_rate missing
            )

    def test_unsharded_spec_rejects_a_group_size_other_than_n(self):
        # One group has n members; a different topology.group_size would
        # be reported (and bound crash_at) but never built.
        plain = dict(protocol="cabcast-l", rate=100.0, duration=0.3, n=3)
        with pytest.raises(ConfigurationError, match="n=3.*group_size=5"):
            RsmRunSpec(**plain, topology=TopologySpec(group_size=5))
        spec = RsmRunSpec(**plain, topology=TopologySpec(group_size=3))
        assert spec.group_size == spec.total_replicas == 3
        sharded = RsmRunSpec(**plain, topology=TopologySpec(groups=2, group_size=5))
        assert sharded.total_replicas == 10


class TestShardedRuns:
    def test_basic_two_shard_run(self):
        result = run_rsm(sharded_spec())
        assert result.shards == 2
        assert result.committed > 0
        assert result.linearizable
        digests = result.digests()
        for shard in range(result.shards):
            per_shard = {digests[pid] for pid in result.shard_pids(shard)
                         if pid in digests}
            assert len(per_shard) == 1, f"shard {shard} diverged"

    def test_dispatch_via_run_rsm(self):
        # run_rsm routes sharded specs to the sharded runner; metrics carry
        # the topology section.
        result = run_rsm(sharded_spec())
        metrics = service_metrics(result)
        assert metrics["topology"]["groups"] == 2
        assert set(metrics["shards"]) == {"0", "1"}

    def test_same_seed_is_deterministic(self):
        spec = sharded_spec(txn_clients=2, txn_rate=20.0)
        first = service_metrics(run_rsm(spec))
        second = service_metrics(run_rsm(spec))
        assert first == second

    def test_transactions_commit_across_shards(self):
        result = run_rsm(
            sharded_spec(topology=TopologySpec(groups=4), txn_clients=2, txn_rate=20.0)
        )
        txns = [t for d in result.txn_drivers.values() for t in d.txns]
        committed = [t for t in txns if t.decision == "commit"]
        assert committed, "no transaction committed"
        for txn in committed:
            assert len(txn.participants) == 2
            assert all(vote == "yes" for vote in txn.votes.values())
        # Every commit is reflected in at least one shard's commit order.
        ordered = {txid for orders in result.commit_orders.values()
                   for txid, _ in orders}
        assert {t.txid for t in committed} <= ordered

    def test_conflicts_abort_under_contention(self):
        # A tiny range-partitioned key space with several txn sessions forces
        # lock conflicts; conflicting prepares must abort, not deadlock.
        result = run_rsm(
            sharded_spec(
                keys=4,
                topology=TopologySpec(groups=2, partitioner="range"),
                txn_clients=4,
                txn_rate=60.0,
                duration=0.5,
            )
        )
        metrics = service_metrics(result)
        assert metrics["txns"]["started"] > 0
        assert metrics["linearizable"]

    def test_coordinator_and_participant_crash_recovery(self):
        # pid 0 lives in shard 0 (coordinator side for t0-rooted txns), pid 5
        # in shard 1; both crash mid-run and rejoin as learners.
        spec = sharded_spec(
            n=4,
            topology=TopologySpec(groups=2),
            txn_clients=2,
            txn_rate=20.0,
            duration=0.6,
            crash_at=((0, 0.25), (5, 0.3)),
            recover_after=0.2,
        )
        result = run_rsm(spec)
        assert sorted(result.crashed) == [0, 5]
        metrics = service_metrics(result)
        assert metrics["linearizable"]
        for info in metrics["recovery"].values():
            assert info["digest_match"]
        assert metrics["txns"]["started"] > 0

    def test_crash_run_is_deterministic(self):
        spec = sharded_spec(
            n=4,
            topology=TopologySpec(groups=2),
            txn_clients=2,
            txn_rate=20.0,
            duration=0.6,
            crash_at=((0, 0.25),),
            recover_after=0.2,
        )
        first = service_metrics(run_rsm(spec))
        second = service_metrics(run_rsm(spec))
        assert first == second

    def test_serial_report_json_frozen(self):
        # The whole report of a serial sharded run (2PC sessions, a crash and
        # a learner rejoin), pinned byte for byte.
        import hashlib

        from repro.engine.runner import execute_run

        spec = sharded_spec(
            n=4,
            txn_clients=2,
            txn_rate=20.0,
            crash_at=((5, 0.2),),
            recover_after=0.15,
        )
        document = execute_run(spec).to_json().encode("utf-8")
        assert hashlib.sha256(document).hexdigest() == (
            "9b435044bc023096b1f548cab964ac92b635fd673296162ed084679a7c510565"
        )

    @pytest.mark.parametrize("parallel", [False, True])
    def test_observed_crash_traces_the_suspicion(self, parallel):
        # The crashed replica's group oracle records the suspicion, whichever
        # kernel the group ran on.
        from repro.engine import RunContext
        from repro.obs import ObsRuntime

        extra = {"parallel": True, "workers": 1} if parallel else {}
        spec = sharded_spec(
            n=4, seed=1, rate=100.0, crash_at=((1, 0.2),), obs=True, **extra
        )
        ctx = RunContext(obs=ObsRuntime.from_spec(spec))
        run_rsm(spec, ctx=ctx)
        oracle_records = [
            (r.time, r.pid, r.kind) for r in ctx.tracer.records if r.pid == -1
        ]
        assert oracle_records == [(0.2, -1, "suspect")]


    @pytest.mark.parametrize("groups", [1, 2])
    def test_metrics_sample_the_suspicions_of_every_group(self, groups):
        spec = RsmRunSpec(
            protocol="cabcast-l",
            rate=100.0,
            duration=0.4,
            n=4,
            clients=4,
            seed=7,
            cluster=PAPER_LAN,
            topology=TopologySpec(groups=groups),
            crash_at=((1, 0.1),),
            obs_metrics_interval=0.05,
        )
        from repro.engine.runner import execute_run

        section = execute_run(spec).obs
        assert section["gauges"] == [
            "fd.suspected",
            "kernel.pending",
            "net.bytes_sent",
            "net.in_flight",
        ]
        assert section["samples"][-1][1] == 1.0


class TestShardSweep:
    def test_grid_shape_and_cache_keys(self):
        from repro.engine import rsm_sweep_grid

        grid = rsm_sweep_grid(
            "cabcast-l",
            rate=100.0,
            duration=0.2,
            shards=(1, 2, 4, 8),
            group_sizes=(3, 5),
            clients=4,
            cluster=PAPER_LAN,
        )
        assert len(grid) == 8
        # The 1-shard cells keep the default topology (PR-5 cache keys).
        assert grid[0].topology.is_default and grid[1].topology.is_default
        assert len({spec.cache_key() for spec in grid}) == 8

    def test_sweep_through_warm_pool(self, tmp_path):
        from repro.engine import rsm_sweep_grid, run_sweep

        grid = rsm_sweep_grid(
            "cabcast-l",
            rate=80.0,
            duration=0.2,
            shards=(1, 2, 4, 8),
            group_sizes=(3, 5),
            clients=4,
            cluster=PAPER_LAN,
        )
        parallel = run_sweep(
            grid, jobs=2, cache=tmp_path / "cache", clamp_jobs=False
        )
        serial = run_sweep(grid)
        assert [r.to_json() for r in parallel.reports] == [
            r.to_json() for r in serial.reports
        ]
        # Costing ranks wide topologies above the single group.
        from repro.engine import estimate_cost

        costs = [estimate_cost(spec) for spec in grid]
        assert costs[-1] > costs[0]

"""Parallel execution of sharded runs: one kernel per shard, mapped.

The parallel path (:mod:`repro.sim.parallel` + :mod:`repro.rsm.parallel`)
is only admissible because it is a pure *execution strategy*: same spec,
same seed ⇒ the same merged trace and the same report regardless of the
worker-process count.  These tests pin that contract down layer by layer:

* :class:`PartitionPlan` validation;
* the substrate (:func:`run_partitions`): an ordered map whose outcomes do
  not depend on the worker count, payload/worker-count validation, and a
  typed :class:`WorkerError` — never a hang or a partial result — when a
  worker process dies;
* spec surface: ``parallel``/``workers`` validation, serialization only
  when set, single-group graceful fallback, obs-mode restrictions;
* per-shard nemesis filtering (point ops, link ops, partitions);
* the RSM path: merged outcomes, the deterministic ``rsm["parallel"]``
  section, and sha256 pins of the merged trace and report taken from the
  pre-refactor engine (commit 5fd8236) for workers 1/2/4, passing and
  failing runs alike;
* the group-assembly seam: one :class:`ReplicaGroup` built on a caller's
  kernel yields the same trace bytes as ``run_rsm``;
* the sweep scheduler's shared CPU budget (``jobs × workers`` clamp).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os

import pytest

from repro.engine.context import RunContext
from repro.engine.spec import NemesisSpec, RsmRunSpec, TopologySpec
from repro.errors import ConfigurationError, ReproError, WorkerError
from repro.nemesis.spec import (
    CpuSkewOp,
    CrashOp,
    DelayOp,
    DropOp,
    DupOp,
    FdFlapOp,
    PartitionOp,
)
from repro.rsm.parallel import (
    _run_shard,
    filter_nemesis_for_shard,
    run_parallel_sharded_rsm,
    shard_partition_plan,
)
from repro.rsm.runner import run_rsm
from repro.rsm.shard import shard_pid_groups
from repro.sim.parallel import PartitionPlan, run_partitions
from repro.sim.trace import Tracer
from tests.test_determinism import _parallel_rsm_spec


def trace_bytes(tracer: Tracer) -> bytes:
    return json.dumps(
        [[r.time, r.pid, r.kind, repr(r.data)] for r in tracer.records]
    ).encode()


# --------------------------------------------------------------------------
# PartitionPlan: validation.


class TestPartitionPlan:
    def test_partition_of(self):
        plan = PartitionPlan(groups=((0, 1), (2, 3)))
        assert plan.partitions == 2
        assert plan.partition_of(0) == 0
        assert plan.partition_of(3) == 1

    def test_rejects_empty_groups(self):
        with pytest.raises(ConfigurationError):
            PartitionPlan(groups=())
        with pytest.raises(ConfigurationError):
            PartitionPlan(groups=((0,), ()))

    def test_rejects_overlapping_groups(self):
        with pytest.raises(ConfigurationError, match="more than one partition"):
            PartitionPlan(groups=((0, 1), (1, 2)))


# --------------------------------------------------------------------------
# Substrate: an ordered map over worker processes.


def _square(partition, payload):
    """Toy task: a pure function of (partition, payload), plus where it ran."""
    return partition, payload * payload, os.getpid()


def _die_in_partition_one(partition, payload):
    if partition == 1:
        os._exit(3)  # the worker process dies mid-task, no cleanup, no reply
    return partition


def _raise_in_partition_two(partition, payload):
    if partition == 2:
        raise ConfigurationError(f"bad payload for partition {partition}")
    return partition


@pytest.fixture
def no_new_children():
    """Asserts on exit that the test left no child process of its own alive
    (the suite's shared sweep pool may legitimately be up already)."""
    before = {child.pid for child in multiprocessing.active_children()}
    yield
    after = {child.pid for child in multiprocessing.active_children()}
    assert after <= before, f"left child processes alive: {sorted(after - before)}"


class TestSubstrate:
    PLAN = PartitionPlan(groups=((0,), (1,)))

    def test_multiprocess_equivalent_to_in_process(self):
        plan = PartitionPlan(groups=((0,), (1,), (2,), (3,), (4,)))
        payloads = [3, 1, 4, 1, 5]
        serial = run_partitions(_square, payloads, plan, workers=1)
        forked = run_partitions(_square, payloads, plan, workers=2)
        strip = lambda outcomes: [(p, value) for p, value, _ in outcomes]
        # Same outcomes, in partition order, wherever they ran.
        assert strip(serial) == strip(forked) == [
            (0, 9), (1, 1), (2, 16), (3, 1), (4, 25)
        ]
        assert {pid for _, _, pid in serial} == {os.getpid()}
        assert os.getpid() not in {pid for _, _, pid in forked}

    def test_workers_clamped_to_partitions(self):
        outcomes = run_partitions(_square, [1, 2], self.PLAN, workers=8)
        # Eight requested, two partitions: at most two processes ever ran.
        assert 1 <= len({pid for _, _, pid in outcomes}) <= 2

    def test_payload_count_must_match_partitions(self):
        with pytest.raises(ConfigurationError):
            run_partitions(_square, [None], self.PLAN, workers=1)

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            run_partitions(_square, [1, 2], self.PLAN, workers=0)

    def test_dead_worker_raises_typed_error_naming_partitions(self, no_new_children):
        plan = PartitionPlan(groups=((0,), (1,), (2,), (3,)))
        with pytest.raises(WorkerError, match="died") as caught:
            run_partitions(_die_in_partition_one, [None] * 4, plan, workers=2)
        err = caught.value
        assert isinstance(err, ReproError)
        # The partition the dead worker was running is named, in the
        # attribute and in the message; nothing partial came back.
        assert 1 in err.partitions
        assert str(list(err.partitions)) in str(err)

    def test_task_error_propagates_unchanged(self, no_new_children):
        plan = PartitionPlan(groups=((0,), (1,), (2,), (3,)))
        for workers in (1, 2):
            with pytest.raises(ConfigurationError, match="partition 2"):
                run_partitions(_raise_in_partition_two, [None] * 4, plan, workers)


# --------------------------------------------------------------------------
# Spec surface: validation, serialization, fallback, obs restrictions.


class TestSpecSurface:
    def test_workers_requires_parallel(self):
        with pytest.raises(ConfigurationError, match="parallel"):
            RsmRunSpec(protocol="multipaxos", rate=10.0, duration=1.0, workers=2)

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            RsmRunSpec(
                protocol="multipaxos",
                rate=10.0,
                duration=1.0,
                parallel=True,
                workers=-1,
            )

    def test_parallel_rejects_txn_clients(self):
        with pytest.raises(ConfigurationError, match="txn_clients"):
            RsmRunSpec(
                protocol="multipaxos",
                rate=10.0,
                duration=1.0,
                topology=TopologySpec(groups=2),
                parallel=True,
                txn_clients=2,
                txn_rate=5.0,
            )

    def test_fields_serialize_only_when_set(self):
        plain = RsmRunSpec(protocol="multipaxos", rate=10.0, duration=1.0)
        assert "parallel" not in plain.to_dict()
        assert "workers" not in plain.to_dict()
        par = RsmRunSpec(
            protocol="multipaxos",
            rate=10.0,
            duration=1.0,
            topology=TopologySpec(groups=2),
            parallel=True,
            workers=2,
        )
        body = par.to_dict()
        assert body["parallel"] is True
        assert body["workers"] == 2
        assert RsmRunSpec.from_dict(body) == par

    def test_parallel_changes_cache_key(self):
        base = dict(
            protocol="multipaxos",
            rate=10.0,
            duration=1.0,
            topology=TopologySpec(groups=2),
        )
        serial = RsmRunSpec(**base)
        parallel = RsmRunSpec(**base, parallel=True)
        assert serial.cache_key() != parallel.cache_key()
        # Worker count is execution-only in effect but serialized for
        # transparency; byte-identity across counts is pinned elsewhere.
        assert (
            RsmRunSpec(**base, parallel=True, workers=2).cache_key()
            != parallel.cache_key()
        )

    def test_single_group_falls_back_to_serial_kernel(self):
        spec = RsmRunSpec(
            protocol="multipaxos",
            rate=20.0,
            duration=1.0,
            n=3,
            clients=2,
            seed=3,
            parallel=True,
        )
        result = run_rsm(spec)
        # The serial kernel served it: no parallel section, live nodes.
        assert result.parallel is None
        assert result.nodes
        assert result.committed > 0

    @staticmethod
    def _two_group_spec(**obs):
        return RsmRunSpec(
            protocol="multipaxos",
            rate=20.0,
            duration=1.0,
            clients=2,
            n=3,
            topology=TopologySpec(groups=2),
            parallel=True,
            obs=True,
            **obs,
        )

    def test_obs_metrics_rejected(self):
        # A spec that constructs is a spec that runs: the sampler and the
        # recorder read one kernel's records, so the spec itself refuses.
        for knob in ({"obs_metrics_interval": 0.1}, {"obs_flight_recorder": 8}):
            with pytest.raises(ConfigurationError, match="obs detail"):
                self._two_group_spec(**knob)

    def test_obs_knobs_on_a_single_group_run_serially(self):
        spec = RsmRunSpec(
            protocol="multipaxos", rate=20.0, duration=0.5, clients=2, n=3,
            parallel=True, obs=True, obs_metrics_interval=0.1,
        )  # fmt: skip
        from repro.engine.runner import execute_run

        assert execute_run(spec).obs is not None

    def test_a_caller_built_runtime_with_metrics_is_rejected(self):
        from repro.obs import ObsConfig, ObsRuntime

        runtime = ObsRuntime(ObsConfig(detail=True, metrics_interval=0.1))
        with pytest.raises(ConfigurationError, match="obs detail"):
            run_rsm(self._two_group_spec(), ctx=RunContext(obs=runtime))


# --------------------------------------------------------------------------
# Per-shard nemesis filtering.


class TestNemesisFiltering:
    def test_point_ops_follow_their_pid(self):
        nem = NemesisSpec(
            (
                CrashOp(at=0.5, pid=2),
                FdFlapOp(at=1.0, duration=0.2, pid=4),
                CpuSkewOp(at=1.5, duration=0.2, pid=2, factor=2.0),
            )
        )
        shard0 = filter_nemesis_for_shard(nem, frozenset({0, 1, 2}))
        shard1 = filter_nemesis_for_shard(nem, frozenset({3, 4, 5}))
        assert {type(op).__name__ for op in shard0.ops} == {"CrashOp", "CpuSkewOp"}
        assert {type(op).__name__ for op in shard1.ops} == {"FdFlapOp"}

    def test_wildcard_link_ops_kept_everywhere(self):
        nem = NemesisSpec(
            (
                DropOp(at=0.1, duration=0.1, p=0.5),
                DelayOp(at=0.2, duration=0.1, extra=1e-3),
                DupOp(at=0.3, duration=0.1, p=0.2),
            )
        )
        for pids in (frozenset({0, 1, 2}), frozenset({9, 10, 11})):
            assert len(filter_nemesis_for_shard(nem, pids).ops) == 3

    def test_addressed_link_op_needs_both_endpoints(self):
        nem = NemesisSpec((DropOp(at=0.1, duration=0.1, p=0.5, src=0, dst=1),))
        assert len(filter_nemesis_for_shard(nem, frozenset({0, 1, 2})).ops) == 1
        # A cross-shard link cannot exist in a partitioned run; the op
        # vanishes from both shards rather than half-applying.
        nem_cross = NemesisSpec((DropOp(at=0.1, duration=0.1, p=0.5, src=0, dst=3),))
        assert len(filter_nemesis_for_shard(nem_cross, frozenset({0, 1, 2})).ops) == 0
        assert len(filter_nemesis_for_shard(nem_cross, frozenset({3, 4, 5})).ops) == 0

    def test_partition_groups_intersected(self):
        nem = NemesisSpec(
            (PartitionOp(at=0.5, duration=0.2, groups=((0, 1, 3), (2, 4))),)
        )
        out = filter_nemesis_for_shard(nem, frozenset({0, 1, 2}))
        assert len(out.ops) == 1
        assert out.ops[0].groups == ((0, 1), (2,))

    def test_partition_missing_shard_isolates_it(self):
        # Serial semantics: pids in no group are isolated.  A shard whose
        # pids all fall outside the op's groups reproduces that with a
        # singleton group (everyone else isolated from it).
        nem = NemesisSpec((PartitionOp(at=0.5, duration=0.2, groups=((0, 1),)),))
        out = filter_nemesis_for_shard(nem, frozenset({3, 4, 5}))
        assert len(out.ops) == 1
        assert out.ops[0].groups == ((3,),)

    def test_shard_partition_plan_requires_sharding(self):
        spec = RsmRunSpec(protocol="multipaxos", rate=10.0, duration=1.0)
        with pytest.raises(ConfigurationError):
            shard_partition_plan(spec)

    def test_shard_pid_groups_layout(self):
        spec = RsmRunSpec(
            protocol="multipaxos",
            rate=10.0,
            duration=1.0,
            n=3,
            topology=TopologySpec(groups=2),
        )
        assert shard_pid_groups(spec) == ((0, 1, 2), (3, 4, 5))


# --------------------------------------------------------------------------
# The RSM path — merged outcomes, deterministic section, parent pins.


class TestParallelRsm:
    SPEC = dict(
        protocol="multipaxos",
        seed=7,
        rate=20.0,
        duration=2.0,
        clients=4,
        topology=TopologySpec(groups=4, group_size=3),
    )

    def test_matches_committed_and_checks(self):
        result = run_rsm(RsmRunSpec(**self.SPEC, parallel=True))
        assert result.shards == 4
        assert result.committed > 0
        assert result.linearizable is True
        parallel = result.parallel
        assert set(parallel) == {
            "partitions", "workers", "events_total", "max_partition_events"
        }
        assert parallel["partitions"] == 4
        assert parallel["events_total"] > parallel["max_partition_events"] > 0

    def test_parallel_section_is_deterministic(self):
        first = run_rsm(RsmRunSpec(**self.SPEC, parallel=True, workers=1))
        second = run_rsm(RsmRunSpec(**self.SPEC, parallel=True, workers=1))
        assert first.parallel == second.parallel

    def test_workers_cap_does_not_change_outputs(self):
        spec = RsmRunSpec(**self.SPEC, parallel=True, workers=4)
        free = run_parallel_sharded_rsm(spec)
        capped = run_parallel_sharded_rsm(spec, workers_cap=1)
        # The deterministic section reports the *requested* workers; only
        # the opt-in perf stats see the actual process count.
        assert free.parallel == capped.parallel
        assert free.parallel_stats["workers"] == 4
        assert capped.parallel_stats["workers"] == 1

    def test_commit_latencies_flow_into_report(self):
        from repro.engine.runner import execute_run

        report = execute_run(RsmRunSpec(**self.SPEC, parallel=True, workers=2))
        assert report.delivered > 0
        assert report.rsm["parallel"]["workers"] == 2
        assert report.rsm["committed"] == report.delivered

    def test_report_json_deterministic_across_worker_counts(self):
        from repro.engine.runner import execute_run

        one = execute_run(RsmRunSpec(**self.SPEC, parallel=True, workers=1))
        # Same spec value => same cache key; run twice to pin byte-identity
        # of the full report document.
        again = execute_run(RsmRunSpec(**self.SPEC, parallel=True, workers=1))
        assert one.to_json() == again.to_json()


# --------------------------------------------------------------------------
# Pins from the pre-refactor engine: the map over shards must reproduce, byte
# for byte, what the conservative-window scheduler produced at commit 5fd8236
# — merged trace and every report section except rsm["parallel"] — for every
# worker count, for passing and failing runs alike.  The nemesis spec is the
# one test_determinism.py pins worker-count identity on.


def _crash_spec(workers):
    return RsmRunSpec(
        protocol="multipaxos",
        seed=5,
        rate=200.0,
        duration=2.0,
        clients=8,
        snapshot_every=20,
        recover_after=0.3,
        crash_at=((1, 0.6), (7, 0.9)),
        topology=TopologySpec(groups=4, group_size=3),
        parallel=True,
        workers=workers,
    )


def _observe(spec):
    """(trace sha256, report-sans-rsm.parallel sha256, error) of one run."""
    from repro.engine.runner import execute_run

    tracer = Tracer()
    report_sha = error = None
    try:
        body = execute_run(spec, ctx=RunContext(tracer=tracer)).to_dict()
        del body["rsm"]["parallel"]
        report_sha = hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()
        ).hexdigest()
    except ReproError as err:
        error = f"{type(err).__name__}: {err}"
    return hashlib.sha256(trace_bytes(tracer)).hexdigest(), report_sha, error


class TestParentPins:
    # The report embeds the spec (and so its cache key and `workers`), hence
    # one report hash per worker count; the trace hash is shared.
    NEMESIS_TRACE = "0d6a99408138c656c8ec83b87468eefda1e50b56b5ad8ddfa8a452749fb16141"
    NEMESIS_REPORT = {
        1: "2ac0ae9b9a1c5f34e2c16178e99b230e66fda55b58aa196d0c81b55ef43fa717",
        2: "640da89ce314a99bdb0ce85ab4e2b6cb7d132ed56cb18830fbbfc15f7dbf3640",
        4: "82f88ae0d2bb83959b9ac6bb6be7ef10b1728c09da46e2fbc22169a00bd4df6c",
    }
    CRASH_TRACE = "4d5b0811f6327c644730767aa9af39e7932594e524d2afcdbaec8a4d4020adfd"
    CRASH_REPORT = {
        1: "ccd27e0a5e1114f612757045862d878229fc3ee1e69e93634a3282fe4ae7f678",
        2: "ee7a8a4b165253d6962347e4828c14c46a78fe38973c2f4d34e00f9b0fb954ad",
        4: "e5d66edced5e5a2df93ca9027b6f0f2ff2cae09f3230f4b43814864df87f1ef0",
    }
    # (seed, groups) -> (merged trace sha256, the failure the parent raised)
    FAILING = {
        (1, 2): (
            "940aa840ec1d5b47f05ab543716734015e66ab60167d30d8bd8f62e23b2c8740",
            "TerminationFailure: requests never acknowledged within the horizon: "
            "{0: [12, 13, 14], 2: [10, 11, 12, 13, 14, 15, 16], "
            "4: [9, 10, 11, 12, 13, 14]}",
        ),
        (23, 4): (
            "daba9860bc3b97dce50d161289aa7809aea870e6a1a8c4dca912fe09fbc2dd6d",
            "TerminationFailure: shard 1: survivor 3 diverged from replica 4 "
            "at drain",
        ),
        (5, 8): (
            "f6cf34b5ed2e337ab5864bd6f8139d601941224e62ae446a19e62c2bbe95ecb2",
            "TerminationFailure: shard 4: survivor 14 diverged from replica 12 "
            "at drain",
        ),
    }

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_nemesis_run_matches_parent(self, workers):
        assert _observe(_parallel_rsm_spec(workers)) == (
            self.NEMESIS_TRACE, self.NEMESIS_REPORT[workers], None
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_crash_recovery_run_matches_parent(self, workers):
        assert _observe(_crash_spec(workers)) == (
            self.CRASH_TRACE, self.CRASH_REPORT[workers], None
        )

    @pytest.mark.parametrize("seed,groups", sorted(FAILING))
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_failing_run_matches_parent(self, workers, seed, groups):
        # A failing shard still re-raises with the full merged trace in the
        # caller's tracer: same evidence, same first failure in shard order.
        trace_sha, error = self.FAILING[seed, groups]
        assert _observe(_parallel_rsm_spec(workers, seed=seed, groups=groups)) == (
            trace_sha, None, error
        )

    # An observed run: its message rows come back through the parent's row
    # writers, so the merged log keeps them as columns.
    OBSERVED_TRACE = "d517c2ddd4e3bcc926104ee7e2461651f186829acc96e22ba0ae5ff2d2e89922"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_observed_run_matches_parent(self, workers):
        from repro.obs import ObsRuntime

        spec = RsmRunSpec(
            protocol="multipaxos", rate=120.0, duration=0.5, clients=4, seed=0,
            topology=TopologySpec(groups=4, group_size=3), parallel=True,
            workers=workers, obs=True,
        )  # fmt: skip
        runtime = ObsRuntime.from_spec(spec)
        run_rsm(spec, ctx=RunContext(obs=runtime))
        log = runtime.tracer.records
        assert hashlib.sha256(trace_bytes(runtime.tracer)).hexdigest() == self.OBSERVED_TRACE
        assert (len(log), len(log.kept), log.loose) == (1931, 443, 0)


def _run_shard_dying_in_shard_two(shard, payload):
    if shard == 2:
        os._exit(1)
    return _run_shard(shard, payload)


class TestDeadWorker:
    def test_dead_shard_worker_raises_typed_error(self, monkeypatch, no_new_children):
        monkeypatch.setattr(
            "repro.rsm.parallel._run_shard", _run_shard_dying_in_shard_two
        )
        spec = RsmRunSpec(**TestParallelRsm.SPEC, parallel=True, workers=2)
        tracer = Tracer()
        with pytest.raises(WorkerError, match=r"died.*\b2\b") as caught:
            run_rsm(spec, ctx=RunContext(tracer=tracer))
        assert isinstance(caught.value, ReproError)
        assert 2 in caught.value.partitions  # partition index == shard number
        # No partial result: nothing was merged (and, by the fixture, no
        # child process is left behind).
        assert tracer.records == []


# --------------------------------------------------------------------------
# Satellite: sweep scheduler shares the CPU budget with per-cell workers.


class TestSweepBudget:
    def test_jobs_times_workers_clamped(self, tmp_path):
        from repro.engine.pool import available_cpus, shutdown_shared_pool
        from repro.engine.runner import run_sweep

        specs = [
            RsmRunSpec(
                protocol="multipaxos",
                seed=seed,
                rate=10.0,
                duration=0.5,
                clients=2,
                topology=TopologySpec(groups=2, group_size=3),
                parallel=True,
                workers=4,
            )
            for seed in (1, 2)
        ]
        try:
            result = run_sweep(specs, jobs=2, clamp_jobs=False)
        finally:
            shutdown_shared_pool()
        assert len(result.reports) == 2
        cpus = available_cpus()
        if 2 * 4 > cpus:
            cap = max(1, cpus // 2)
            assert any(
                f"workers clamped to {cap}" in note for note in result.notes
            ), result.notes
        # Reports stay deterministic: the requested workers value survives.
        assert all(r.rsm["parallel"]["workers"] == 4 for r in result.reports)

    def test_serial_sweep_unaffected(self):
        from repro.engine.runner import run_sweep

        spec = RsmRunSpec(
            protocol="multipaxos",
            seed=1,
            rate=10.0,
            duration=0.5,
            clients=2,
            topology=TopologySpec(groups=2, group_size=3),
            parallel=True,
            workers=2,
        )
        result = run_sweep([spec], jobs=1)
        assert result.notes == ()
        assert result.reports[0].rsm["parallel"]["partitions"] == 2

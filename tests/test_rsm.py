"""Tests for the RSM service layer: machine, sessions, batching, recovery.

The service-level scenarios run the full stack (client drivers → batcher →
C-Abcast → apply → snapshots) on the paper's LAN calibration; the seeds and
crash times of the failover tests are chosen so both exactly-once paths are
exercised deterministically:

* the in-flight request died in the crashed home's batcher — the retry is
  the first and only application;
* the crashed home's proposal escaped before the crash — the retry is
  re-proposed, totally ordered a second time, and suppressed by the dedup
  table at every replica.
"""

import hashlib
import json

import pytest

from repro.engine import PAPER_LAN, RsmRunSpec, execute_run, run_sweep, spec_from_dict
from repro.engine.report import RunReport
from repro.errors import (
    AgreementViolation,
    ConfigurationError,
    IntegrityViolation,
    LinearizabilityViolation,
    ReproError,
    TotalOrderViolation,
)
from repro.harness.checkers import (
    check_rsm_exactly_once,
    check_rsm_linearizable,
    check_rsm_log_consistent,
    check_rsm_session_order,
    check_uniform_total_order,
)
from repro.rsm import (
    BATCH_TIMER,
    Batcher,
    Command,
    CommandStream,
    DedupTable,
    KvStore,
    Request,
    ServingSet,
    run_rsm,
    service_metrics,
)


def quick_spec(**overrides) -> RsmRunSpec:
    base = dict(
        protocol="cabcast-l",
        rate=150.0,
        duration=0.6,
        n=4,
        clients=4,
        seed=7,
        cluster=PAPER_LAN,
    )
    base.update(overrides)
    return RsmRunSpec(**base)


class TestKvStore:
    def test_set_get_del(self):
        kv = KvStore()
        assert kv.apply(Command("set", "a", value="1")) == "1"
        assert kv.apply(Command("get", "a")) == "1"
        assert kv.apply(Command("del", "a")) == "1"
        assert kv.apply(Command("get", "a")) is None
        assert kv.apply(Command("del", "a")) is None

    def test_cas_applies_only_on_match(self):
        kv = KvStore()
        kv.apply(Command("set", "a", value="1"))
        assert kv.apply(Command("cas", "a", value="2", expect="0")) is False
        assert kv.apply(Command("get", "a")) == "1"
        assert kv.apply(Command("cas", "a", value="2", expect="1")) is True
        assert kv.apply(Command("get", "a")) == "2"

    def test_digest_tracks_state(self):
        a, b = KvStore(), KvStore()
        assert a.digest() == b.digest()
        a.apply(Command("set", "k", value="v"))
        assert a.digest() != b.digest()
        b.apply(Command("set", "k", value="v"))
        assert a.digest() == b.digest()

    def test_snapshot_install_round_trip(self):
        a = KvStore()
        a.apply(Command("set", "x", value="1"))
        a.apply(Command("set", "y", value="2"))
        snapshot = a.snapshot()
        a.apply(Command("del", "x"))  # mutations after the snapshot
        b = KvStore()
        b.install(snapshot)
        assert b.items() == [("x", "1"), ("y", "2")]
        snapshot["x"] = "tampered"  # install must have copied
        assert b.apply(Command("get", "x")) == "1"

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError):
            Command("incr", "a")


class TestDedupTable:
    def test_high_water_mark(self):
        table = DedupTable()
        assert not table.is_duplicate(1, 1)
        table.record(1, 1, "r1")
        assert table.is_duplicate(1, 1)
        assert not table.is_duplicate(1, 2)
        assert not table.is_duplicate(2, 1)  # other sessions unaffected
        table.record(1, 5, "r5")
        assert table.is_duplicate(1, 3)  # anything at or below the mark

    def test_cached_result_only_for_latest(self):
        table = DedupTable()
        table.record(1, 1, "r1")
        table.record(1, 2, "r2")
        assert table.cached_result(1, 2) == "r2"
        assert table.cached_result(1, 1) is None
        assert table.cached_result(9, 1) is None

    def test_snapshot_install_round_trip(self):
        table = DedupTable()
        table.record(1, 3, "a")
        table.record(2, 8, "b")
        other = DedupTable()
        other.install(table.snapshot())
        assert other.is_duplicate(1, 3) and other.is_duplicate(2, 8)
        assert other.cached_result(2, 8) == "b"
        assert len(other) == 2


class _FakeEnv:
    def __init__(self):
        self.timers = {}

    def set_timer(self, name, delay):
        self.timers[name] = delay

    def cancel_timer(self, name):
        self.timers.pop(name, None)


def _req(seq: int) -> Request:
    return Request(0, seq, Command("set", "k", value=str(seq)))


class TestBatcher:
    def test_size_trigger_flushes_immediately(self):
        env, batches = _FakeEnv(), []
        batcher = Batcher(env, batches.append, max_batch=3, max_delay=1.0)
        batcher.add(_req(1))
        batcher.add(_req(2))
        assert batches == [] and BATCH_TIMER in env.timers
        batcher.add(_req(3))
        assert [len(b) for b in batches] == [3]
        assert BATCH_TIMER not in env.timers  # flush cancels the timer

    def test_time_trigger_flushes_partial_batch(self):
        env, batches = _FakeEnv(), []
        batcher = Batcher(env, batches.append, max_batch=8, max_delay=0.002)
        batcher.add(_req(1))
        assert env.timers[BATCH_TIMER] == 0.002
        assert batcher.on_timer("other-timer") is False
        assert batcher.on_timer(BATCH_TIMER) is True
        assert [b[0].seq for b in batches] == [1]
        assert len(batcher) == 0

    def test_zero_delay_means_no_batching(self):
        env, batches = _FakeEnv(), []
        batcher = Batcher(env, batches.append, max_batch=8, max_delay=0.0)
        batcher.add(_req(1))
        batcher.add(_req(2))
        assert [len(b) for b in batches] == [1, 1]
        assert batcher.flushes == 2 and batcher.batched_requests == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Batcher(_FakeEnv(), lambda b: None, max_batch=0)
        with pytest.raises(ConfigurationError):
            Batcher(_FakeEnv(), lambda b: None, max_delay=-1.0)


class TestCommandStream:
    def test_deterministic_per_seed_and_session(self):
        first = [CommandStream(2, 7, 16).next(seq) for seq in range(1, 40)]
        again = [CommandStream(2, 7, 16).next(seq) for seq in range(1, 40)]
        other = [CommandStream(3, 7, 16).next(seq) for seq in range(1, 40)]
        assert first == again
        assert first != other

    def test_writes_carry_session_identity(self):
        commands = [CommandStream(5, 0, 8).next(seq) for seq in range(1, 60)]
        sets = [c for c in commands if c.op == "set"]
        assert sets and all(c.value.startswith("s5.") for c in sets)

    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            CommandStream(0, 0, 8, mix=())


class TestServingSet:
    def test_next_home_wraps_and_skips_removed(self):
        serving = ServingSet([0, 1, 2, 3])
        serving.remove(2)
        assert serving.next_home(2) == 3
        serving.remove(3)
        assert serving.next_home(2) == 0  # wrap-around
        assert 2 not in serving and 0 in serving

    def test_empty_set_raises(self):
        serving = ServingSet([0])
        serving.remove(0)
        with pytest.raises(ConfigurationError):
            serving.next_home(0)


class TestRsmCheckers:
    def test_exactly_once_teeth(self):
        check_rsm_exactly_once({0: [(1, 1), (1, 2), (2, 1)]})
        with pytest.raises(IntegrityViolation):
            check_rsm_exactly_once({0: [(1, 1), (2, 1), (1, 1)]})

    def test_session_order_teeth(self):
        check_rsm_session_order({0: [(1, 1), (2, 5), (1, 2), (2, 9)]})
        with pytest.raises(TotalOrderViolation):
            check_rsm_session_order({0: [(1, 2), (1, 1)]})

    def test_log_consistency_aligns_by_index(self):
        # A learner starting mid-stream agrees on the shared suffix.
        check_rsm_log_consistent(
            {
                0: [(1, (1, 1)), (2, (1, 2)), (3, (2, 1))],
                1: [(2, (1, 2)), (3, (2, 1))],
            }
        )
        with pytest.raises(AgreementViolation):
            check_rsm_log_consistent(
                {0: [(1, (1, 1))], 1: [(1, (9, 9))]}
            )

    def test_linearizability_teeth(self):
        history = [
            (Command("set", "a", value="1"), "1"),
            (Command("cas", "a", value="2", expect="1"), True),
            (Command("get", "a"), "2"),
        ]
        check_rsm_linearizable(history, KvStore())
        stale_read = history[:2] + [(Command("get", "a"), "1")]
        with pytest.raises(LinearizabilityViolation):
            check_rsm_linearizable(stale_read, KvStore())


class TestRsmSpec:
    def test_round_trip_and_stable_cache_key(self):
        spec = quick_spec(crash_at=((2, 0.3),), recover_after=0.1)
        clone = spec_from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()
        assert spec.cache_key() == spec.cache_key()

    def test_cache_key_sensitive_to_service_knobs(self):
        assert quick_spec().cache_key() != quick_spec(seed=8).cache_key()
        assert quick_spec().cache_key() != quick_spec(batch_max=4).cache_key()
        assert quick_spec().cache_key() != quick_spec(snapshot_every=5).cache_key()
        assert quick_spec().cache_key() != quick_spec(workload="closed").cache_key()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            quick_spec(rate=0)
        with pytest.raises(ConfigurationError):
            quick_spec(workload="sawtooth")
        with pytest.raises(ConfigurationError):
            quick_spec(n=1)
        with pytest.raises(ConfigurationError):
            quick_spec(clients=0)
        with pytest.raises(ConfigurationError):
            quick_spec(crash_at=((0, 0.1), (1, 0.1), (2, 0.1), (3, 0.1)))

    def test_crash_pid_must_exist(self):
        with pytest.raises(ConfigurationError):
            run_rsm(quick_spec(crash_at=((7, 0.1),)))


class TestRunRsm:
    def test_healthy_run_converges_and_is_checked(self):
        result = run_rsm(quick_spec())
        assert result.committed > 0
        assert len(set(result.digests().values())) == 1
        assert result.linearizable
        assert not result.crashed
        metrics = service_metrics(result)
        assert metrics["committed"] == result.committed
        assert metrics["offered_window"] == metrics["committed_window"]
        assert metrics["batches"]["count"] > 0
        assert metrics["snapshots"]["taken"] > 0
        assert metrics["latency_ms"]["p50"] > 0

    def test_same_spec_same_metrics(self):
        first = service_metrics(run_rsm(quick_spec()))
        second = service_metrics(run_rsm(quick_spec()))
        assert first == second

    def test_closed_loop_workload(self):
        result = run_rsm(quick_spec(workload="closed", rate=400.0))
        assert result.committed > 0
        # One outstanding request per session: commits can never outnumber
        # the session count within any instant, so per-session seqs are dense.
        for driver in result.drivers.values():
            assert sorted(driver.acked) == list(range(1, len(driver.acked) + 1))

    def test_crash_recovery_uses_snapshot_not_full_replay(self):
        result = run_rsm(quick_spec(duration=1.0, crash_at=((2, 0.5),)))
        learner = result.learners[2]
        auth = result.replicas[result.authority]
        assert learner.digest() == auth.digest()
        assert learner.is_learner
        # Recovery is real: the learner booted from its own durable snapshot
        # and replayed strictly fewer commands than the full committed log.
        assert learner.recovered_from_index > 0
        assert 0 < learner.replayed < auth.applied_index
        assert learner.applied_index == auth.applied_index
        metrics = service_metrics(result)
        assert metrics["recovery"]["2"]["digest_match"] is True
        assert metrics["recovery"]["2"]["replayed"] == learner.replayed

    def test_learner_apply_record_is_unchanged_across_a_snapshot_jump(self):
        # The learner boots from its own snapshot, then installs newer ones
        # from catch-up replies, so its apply indexes jump.  Its record, read
        # back as entries, is pinned to what the full-entry list recorded.
        result = run_rsm(quick_spec(duration=1.0, crash_at=((2, 0.5),)))
        learner = result.learners[2]
        audit = learner.audit
        indexes = [entry.index for entry in audit]
        assert learner.snapshot_installs > 1
        assert (123, 126) in zip(indexes, indexes[1:])
        assert len(learner.applies.index) == len(audit) == 45
        rows = [(e.index, e.request, e.result, e.at) for e in audit]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "8ce255fa2a4b9b7222e71558630869223a5d6ea1f708f3a5a1b29c86d9631540"
        )

    def test_recovery_without_snapshots_replays_everything(self):
        result = run_rsm(
            quick_spec(duration=1.0, crash_at=((2, 0.5),), snapshot_every=0)
        )
        learner = result.learners[2]
        # No snapshot to install: the learner starts at index 0 and replays
        # the entire log — the contrast that makes snapshots recovery.
        assert learner.recovered_from_index == 0
        assert learner.replayed == learner.applied_index
        assert learner.digest() == result.replicas[result.authority].digest()

    def test_recovery_disabled_leaves_replica_down(self):
        result = run_rsm(quick_spec(duration=1.0, crash_at=((2, 0.5),),
                                    recover_after=None))
        assert not result.learners
        assert result.replicas[2].applied_index < result.committed


class TestGroupAssembly:
    """The seam under all three runners: one ``ReplicaGroup`` built on a
    kernel, network and storage the *caller* owns is the run ``run_rsm``
    performs — same trace bytes, same checked outcome."""

    def test_one_group_on_a_callers_kernel_matches_run_rsm(self):
        from repro.engine.context import RunContext
        from repro.rsm.group import Fabric, ReplicaGroup, launch
        from repro.sim.kernel import Simulator
        from repro.sim.network import Network
        from repro.sim.storage import StorageFabric
        from repro.sim.trace import Tracer

        def trace_bytes(tracer):
            return json.dumps(
                [[r.time, r.pid, r.kind, repr(r.data)] for r in tracer.records]
            ).encode()

        spec = quick_spec(duration=1.0, crash_at=((2, 0.5),))
        reference = Tracer()
        result = run_rsm(spec, ctx=RunContext(tracer=reference))

        cluster = spec.cluster
        sim = Simulator(seed=spec.seed, batch=spec.batch)
        network = Network(
            sim,
            delay=cluster.delay,
            datagram_delay=cluster.datagram_delay,
            datagram_loss=cluster.datagram_loss,
            capacity=cluster.capacity,
        )
        tracer = Tracer()
        group = ReplicaGroup(spec, Fabric(sim, network, StorageFabric(), tracer))
        drivers = launch([group], nemesis=spec.nemesis)
        sim.run(until=spec.horizon, max_events=spec.max_events)
        outcome = group.check()

        assert len(tracer.records) > 0
        assert trace_bytes(tracer) == trace_bytes(reference)
        assert outcome.failure is None
        assert [outcome] == result.outcomes
        assert sorted(drivers) == sorted(result.drivers) == list(range(spec.clients))
        assert set(group.learners) == {2}


def _materialised_drain_check(group) -> ReproError | None:
    """The drain checks fed whole lists, built from ``audit`` for every
    replica at once: the form the group's per-replica views replace."""
    replicas, learners = group.replicas, group.learners
    survivors = group.serving.pids()
    authority = min(survivors, key=lambda pid: (-replicas[pid].applied_index, pid))
    try:
        check_rsm_linearizable(
            [(e.request.command, e.result) for e in replicas[authority].audit],
            KvStore(),
        )
        check_uniform_total_order(
            {pid: list(replicas[pid].abcast.delivered_ids) for pid in survivors}
        )
        audited = {
            pid: [e.request.rid for e in replicas[pid].audit]
            for pid in (*survivors, *learners)
        }
        check_rsm_exactly_once(audited)
        check_rsm_session_order(audited)
        check_rsm_log_consistent(
            {
                pid: [(e.index, e.request.rid) for e in replicas[pid].audit]
                for pid in (*survivors, *learners)
            }
        )
    except ReproError as err:
        return err
    return None


def _swap(column, a, b):
    column[a], column[b] = column[b], column[a]


def _rows_of_one_session(record):
    rows = {}
    for row, request in enumerate(record.request):
        rows.setdefault(request.session, []).append(row)
    return next(pair[:2] for pair in rows.values() if len(pair) > 1)


def _rows_of_two_sessions(record):
    return next(
        (row, row + 1)
        for row in range(len(record.request) - 1)
        if record.request[row].session != record.request[row + 1].session
    )


# Sabotages of a finished run, each ``(authority, survivor, learner)``:
# replica 0 is the authority, survivor 1 is not, learner 2 rejoined through
# snapshot installs.


def _duplicate_rid(auth, other, learner):
    other.applies.request[10] = other.applies.request[9]


def _seq_out_of_session_order(auth, other, learner):
    _swap(other.applies.request, *_rows_of_one_session(other.applies))


def _disagree_at_one_index(auth, other, learner):
    _swap(learner.applies.request, *_rows_of_two_sessions(learner.applies))


def _index_column_shifted(auth, other, learner):
    learner.applies.index[5] += 1


def _diverging_delivery_order(auth, other, learner):
    _swap(other.abcast.delivered_ids, 3, 4)


def _wrong_result(auth, other, learner):
    auth.applies.result[7] = "sabotaged"


#: sabotage -> the checker error it must raise.
SABOTAGES = {
    _duplicate_rid: IntegrityViolation,
    _seq_out_of_session_order: TotalOrderViolation,
    _disagree_at_one_index: AgreementViolation,
    _index_column_shifted: AgreementViolation,
    _diverging_delivery_order: TotalOrderViolation,
    _wrong_result: LinearizabilityViolation,
}


class TestDrainCheckViews:
    """The drain checks read each replica's apply record through lazy
    per-replica views; on sabotaged columns they must fail exactly as the
    same checkers fed materialised lists do — type and message."""

    def _run_group(self):
        from repro.rsm.group import Fabric, ReplicaGroup, launch

        spec = quick_spec(duration=1.0, crash_at=((2, 0.5),))
        fabric = Fabric.fresh(spec.cluster, spec.seed, spec.batch)
        group = ReplicaGroup(spec, fabric)
        launch([group], nemesis=spec.nemesis)
        fabric.sim.run(until=spec.horizon, max_events=spec.max_events)
        return group

    def test_an_untouched_run_passes_both_ways(self):
        group = self._run_group()
        assert group.check().failure is None
        assert _materialised_drain_check(group) is None

    @pytest.mark.parametrize(
        "sabotage", list(SABOTAGES), ids=lambda fn: fn.__name__.strip("_")
    )
    def test_sabotage_fails_identically(self, sabotage):
        error = SABOTAGES[sabotage]
        group = self._run_group()
        replicas = group.replicas
        assert group.check().authority == 0 and set(group.learners) == {2}
        sabotage(replicas[0], replicas[1], replicas[2])

        expected = _materialised_drain_check(group)
        failure = group.check().failure
        assert type(expected) is error
        assert type(failure) is error
        assert str(failure) == str(expected)


class TestApplyLag:
    """``apply_lag_ms`` lines the survivors' index columns up row by row;
    the reference groups apply times per index in a dict, in the first
    survivor's order."""

    @staticmethod
    def _reference(records):
        times_by_index = {}
        for record in records:
            for index, at in zip(record.index, record.at):
                times_by_index.setdefault(index, []).append(at)
        return [
            max(times) - min(times)
            for times in times_by_index.values()
            if len(times) == len(records)
        ]

    @staticmethod
    def _record(indexes, skew):
        from repro.rsm.replica import ApplyRecord

        record = ApplyRecord()
        for index in indexes:
            record.append(index, None, None, index * 1e-3 + (skew * index) % 7 * 1e-5)
        return record

    @pytest.mark.parametrize(
        "columns",
        [
            [range(1, 40), range(1, 40), range(1, 40)],
            [range(1, 40), range(1, 25), range(1, 40)],
            # a learner that joined late and skipped indexes twice
            [range(1, 40), [*range(12, 18), *range(21, 30), *range(33, 45)]],
            [[*range(5, 9), *range(20, 31)], range(1, 40), range(25, 60)],
            [range(1, 10), range(20, 30)],
            [range(1, 10)],
            [[], range(1, 10)],
        ],
    )
    def test_matches_the_dict_grouping(self, columns):
        from repro.rsm.runner import _apply_lags

        records = [self._record(c, skew) for skew, c in enumerate(columns, 1)]
        assert _apply_lags(records) == self._reference(records)
        assert _apply_lags([]) == []


class TestExactlyOnceAcrossLeaderCrash:
    """Satellite (d): the same (session, seq) retried across a crash is
    applied once everywhere — through both failover paths."""

    def _crash_spec(self, crash_at: float, **overrides) -> RsmRunSpec:
        base = dict(
            protocol="cabcast-l",
            rate=2000.0,
            duration=0.45,
            n=4,
            clients=4,
            workload="closed",
            cluster=PAPER_LAN,
            crash_at=((0, crash_at),),
            failover_delay=3e-4,
            seed=0,
        )
        base.update(overrides)
        return RsmRunSpec(**base)

    def _assert_single_application(self, result):
        retried = [
            record.request.rid
            for driver in result.drivers.values()
            for record in [*driver.pending.values()]
        ]
        assert not retried  # everything eventually acknowledged
        for pid, replica in result.replicas.items():
            rids = [entry.request.rid for entry in replica.audit]
            assert len(rids) == len(set(rids)), f"duplicate apply at replica {pid}"

    def test_retry_is_first_application_when_batch_died(self):
        # Seed/crash chosen so the in-flight request was still in the dead
        # home's batcher: the retry at the new home is the sole application.
        result = run_rsm(self._crash_spec(0.25))
        assert sum(d.retries for d in result.drivers.values()) >= 1
        assert service_metrics(result)["dedup"]["suppressed"] == 0
        self._assert_single_application(result)

    def test_retry_of_escaped_proposal_is_suppressed_everywhere(self):
        # Seed/crash chosen so the dead home's proposal escaped first: the
        # retry is ordered a second time and suppressed post-delivery by the
        # dedup table — at every replica, since the check runs after total
        # order.
        result = run_rsm(self._crash_spec(0.252))
        assert sum(d.retries for d in result.drivers.values()) >= 1
        suppressed = service_metrics(result)["dedup"]["suppressed"]
        assert suppressed >= 1
        for pid in result.replicas:
            if pid in result.crashed:
                continue
            assert result.replicas[pid].dedup.suppressed == suppressed
        self._assert_single_application(result)

    def test_planned_submission_never_overtakes_a_retry(self):
        # Session 5 submits seq 94 to its home p1 at 1.999045 s; p1 crashes
        # at 2.0 s with 94 in its batcher.  Seq 95+ were planned before the
        # retry of 94 at 2.005 s: had they reached the new home first, the
        # per-session high-water mark would make 94 a duplicate everywhere
        # — suppressed, never applied, never acknowledged.
        result = run_rsm(RsmRunSpec(
            "cabcast-l", rate=400, duration=2.2, n=4, clients=8, seed=122,
            cluster=PAPER_LAN, crash_at=((1, 2.0),), check=True,
        ))
        assert result.drivers[5].retries == 1
        assert 94 in result.drivers[5].acked
        self._assert_single_application(result)
        applied = [entry.request.rid for entry in result.replicas[result.authority].audit]
        assert (5, 94) in applied
        assert applied.index((5, 94)) < applied.index((5, 95))


class TestEngineIntegration:
    def test_execute_run_attaches_rsm_section(self):
        report = execute_run(quick_spec())
        assert report.rsm is not None
        assert report.rsm["linearizable"] is True
        assert report.delivered == report.rsm["committed_window"]
        assert report.key == quick_spec().cache_key()

    def test_report_json_round_trip(self):
        report = execute_run(quick_spec())
        data = json.loads(json.dumps(report.to_dict()))
        clone = RunReport.from_dict(data)
        assert clone.spec == quick_spec()
        assert clone.to_dict() == report.to_dict()

    def test_same_seed_byte_identical_json(self):
        first = json.dumps(execute_run(quick_spec()).to_dict(), sort_keys=True)
        second = json.dumps(execute_run(quick_spec()).to_dict(), sort_keys=True)
        assert first == second

    def test_second_sweep_served_entirely_from_cache(self, tmp_path):
        grid = [quick_spec(seed=seed) for seed in (1, 2)]
        first = run_sweep(grid, cache=tmp_path)
        assert (first.cache_hits, first.cache_misses) == (0, 2)
        second = run_sweep(grid, cache=tmp_path)
        assert (second.cache_hits, second.cache_misses) == (2, 0)
        assert [r.to_dict() for r in first.reports] == [
            r.to_dict() for r in second.reports
        ]

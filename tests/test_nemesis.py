"""Nemesis DSL and injection runtime tests.

Covers the frozen schedule DSL (validation, serialisation, content
addressing), the spec-field integration (absent schedules must not perturb
cache keys), the runtime behaviour of each op kind against real protocol
runs, and the determinism guarantees (same seed → byte-identical traces,
batched and serial kernels agree, shrinking is idempotent).
"""

import dataclasses
import json

import pytest

from repro.engine import (
    AbcastRunSpec,
    ClusterSpec,
    ConsensusRunSpec,
    RsmRunSpec,
    spec_from_dict,
)
from repro.errors import ConfigurationError
from repro.harness.abcast_runner import run_abcast
from repro.harness.consensus_runner import run_consensus
from repro.nemesis import (
    CpuSkewOp,
    CrashOp,
    DelayOp,
    DropOp,
    DupOp,
    FdFlapOp,
    NemesisSpec,
    PartitionOp,
    crash_storm,
    shrink_schedule,
)
from repro.sim.network import UniformDelay
from repro.sim.trace import KINDS, Tracer

ALL_KINDS = NemesisSpec(
    (
        PartitionOp(at=0.01, duration=0.02, groups=((0, 1), (2, 3))),
        CrashOp(at=0.03, pid=3),
        DropOp(at=0.0, duration=0.01, p=0.5, src=0),
        DelayOp(at=0.02, duration=0.01, extra=1e-3, jitter=1e-4),
        DupOp(at=0.01, duration=0.005, p=0.3, dst=2),
        FdFlapOp(at=0.015, duration=0.004, pid=1),
        CpuSkewOp(at=0.0, duration=0.05, pid=2, factor=3.0),
    )
)


class TestNemesisDsl:
    def test_round_trips_through_json(self):
        payload = json.dumps(ALL_KINDS.to_dict())  # must be JSON-safe
        back = NemesisSpec.from_dict(json.loads(payload))
        assert back == ALL_KINDS
        assert back.cache_key() == ALL_KINDS.cache_key()

    def test_cache_key_sensitive_to_any_op_field(self):
        moved = NemesisSpec(
            (dataclasses.replace(ALL_KINDS.ops[0], at=0.011),) + ALL_KINDS.ops[1:]
        )
        assert moved.cache_key() != ALL_KINDS.cache_key()

    def test_sorted_ops_is_stable_on_ties(self):
        a, b = CrashOp(at=0.5, pid=0), CrashOp(at=0.5, pid=1)
        ordered = NemesisSpec((b, a, CrashOp(at=0.1, pid=2))).sorted_ops()
        assert [op.pid for _, op in ordered] == [2, 1, 0]
        assert [idx for idx, _ in ordered] == [2, 0, 1]

    def test_composition(self):
        storm = crash_storm([0, 1], start=0.1, spacing=0.05)
        assert [op.at for op in storm.ops] == [0.1, pytest.approx(0.15)]
        combined = storm + NemesisSpec((FdFlapOp(at=0.2, duration=0.1, pid=2),))
        assert len(combined) == 3
        assert len(storm.then(CrashOp(at=0.3, pid=2))) == 3
        assert not NemesisSpec()
        assert NemesisSpec.from_dict(None) == NemesisSpec()

    def test_partition_groups_canonicalised(self):
        op = PartitionOp(at=0.0, duration=1.0, groups=([2, 1, 1], (0,)))
        assert op.groups == ((1, 2), (0,))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PartitionOp(at=0.0, duration=1.0, groups=()),
            lambda: PartitionOp(at=0.0, duration=0.0, groups=((0,), (1,))),
            lambda: CrashOp(at=-0.1, pid=0),
            lambda: DropOp(at=0.0, duration=1.0, p=0.0),
            lambda: DropOp(at=0.0, duration=1.0, p=1.5),
            lambda: DelayOp(at=0.0, duration=1.0),
            lambda: DupOp(at=0.0, duration=1.0, p=-0.5),
            lambda: FdFlapOp(at=0.0, duration=-1.0, pid=0),
            lambda: CpuSkewOp(at=0.0, duration=1.0, pid=0),
        ],
    )
    def test_invalid_ops_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()


class TestSpecIntegration:
    NEM = NemesisSpec((CrashOp(at=0.01, pid=1),))

    @pytest.mark.parametrize(
        "spec",
        [
            AbcastRunSpec(protocol="cabcast-p", rate=50.0, duration=0.2),
            ConsensusRunSpec(protocol="l-consensus", proposals=("a", "b", "c", "d")),
            RsmRunSpec(protocol="cabcast-l", rate=50.0, duration=0.2, clients=2),
        ],
    )
    def test_absent_nemesis_not_serialised(self, spec):
        assert "nemesis" not in spec.to_dict()
        assert spec_from_dict(spec.to_dict()).nemesis is None

    @pytest.mark.parametrize(
        "spec",
        [
            AbcastRunSpec(protocol="cabcast-p", rate=50.0, duration=0.2, nemesis=NEM),
            ConsensusRunSpec(
                protocol="l-consensus", proposals=("a", "b", "c"), nemesis=NEM
            ),
            RsmRunSpec(
                protocol="cabcast-l", rate=50.0, duration=0.2, clients=2, nemesis=NEM
            ),
        ],
    )
    def test_nemesis_round_trips_and_perturbs_key(self, spec):
        assert spec_from_dict(spec.to_dict()) == spec
        plain = dataclasses.replace(spec, nemesis=None)
        assert spec.cache_key() != plain.cache_key()


JITTER = dict(
    delay=UniformDelay(1e-4, 3e-3), horizon=5.0, detection_delay=1e-3
)
PROPOSALS = {0: "b", 1: "a", 2: "a", 3: "a"}


class TestNemesisRuntime:
    def test_crash_op_matches_crash_at_decisions(self):
        via_kwarg = run_consensus(
            "l-consensus", PROPOSALS, seed=7, crash_at={0: 0.0008}, **JITTER
        )
        via_nemesis = run_consensus(
            "l-consensus",
            PROPOSALS,
            seed=7,
            nemesis=NemesisSpec((CrashOp(at=0.0008, pid=0),)),
            **JITTER,
        )
        assert via_nemesis.decisions == via_kwarg.decisions

    def test_nemesis_trace_kinds_emitted(self):
        tracer = Tracer()
        nem = NemesisSpec(
            (
                DelayOp(at=0.001, duration=0.01, extra=1e-4),
                FdFlapOp(at=0.002, duration=0.01, pid=3),
            )
        )
        run_consensus(
            "p-consensus", {p: "v" for p in range(4)}, seed=1, nemesis=nem,
            tracer=tracer, **JITTER,
        )
        counts = tracer.counts()
        assert counts[KINDS.NEMESIS_START] == 2
        assert counts[KINDS.NEMESIS_END] == 2

    def test_partition_window_stats(self):
        # Satellite: blocked sends are attributed to the partition window.
        nem = NemesisSpec(
            (PartitionOp(at=0.05, duration=0.05, groups=((0, 1), (2, 3))),)
        )
        result = run_abcast(
            "cabcast-p",
            4,
            {p: [(0.002 * i, f"m{p}.{i}") for i in range(40)] for p in range(4)},
            seed=3,
            horizon=0.3,
            check=False,
            nemesis=nem,
        )
        stats = result.network_stats
        assert stats["partition_blocked"] > 0
        (window,) = stats["partition_windows"]
        assert window["start"] == pytest.approx(0.05)
        assert window["end"] == pytest.approx(0.10)
        assert window["blocked"] == stats["partition_blocked"]

    def test_net_partition_and_heal_traced_under_obs(self):
        from repro.engine import RunContext
        from repro.obs import ObsRuntime

        spec = ConsensusRunSpec(
            protocol="p-consensus",
            proposals=("v", "v", "v", "v"),
            seed=2,
            horizon=0.5,
            obs=True,
            # Decision lands in ~5ms; the split arrives long after and is
            # harmless, so the run still checks clean.
            nemesis=NemesisSpec(
                (PartitionOp(at=0.2, duration=0.1, groups=((0,), (1, 2, 3))),)
            ),
        )
        tracer = Tracer()
        ctx = RunContext(tracer=tracer, obs=ObsRuntime.from_spec(spec, tracer=tracer))
        run_consensus(spec, ctx=ctx)
        counts = tracer.counts()
        assert counts[KINDS.NET_PARTITION] == 1
        assert counts[KINDS.NET_HEAL] == 1

    def test_drop_window_loses_messages(self):
        base = run_abcast(
            "cabcast-p", 4, {0: [(0.001, "a")]}, seed=5, horizon=0.5, check=False
        )
        dropped = run_abcast(
            "cabcast-p",
            4,
            {0: [(0.001, "a")]},
            seed=5,
            horizon=0.5,
            check=False,
            nemesis=NemesisSpec((DropOp(at=0.0, duration=0.5, p=1.0),)),
        )
        assert base.network_stats["dropped"] == 0
        assert dropped.network_stats["dropped"] > 0
        assert not any(dropped.deliveries.values())

    def test_dup_window_resends_messages(self):
        base = run_abcast(
            "cabcast-p", 4, {0: [(0.001, "a")]}, seed=6, horizon=0.5, check=False
        )
        duped = run_abcast(
            "cabcast-p",
            4,
            {0: [(0.001, "a")]},
            seed=6,
            horizon=0.5,
            check=False,
            nemesis=NemesisSpec((DupOp(at=0.0, duration=0.5, p=1.0),)),
        )
        assert duped.network_stats["sent"] > base.network_stats["sent"]

    def test_fd_flap_on_leader_still_decides_correctly(self):
        result = run_consensus(
            "l-consensus",
            PROPOSALS,
            seed=9,
            nemesis=NemesisSpec((FdFlapOp(at=0.0002, duration=0.05, pid=0),)),
            **JITTER,
        )
        assert len(set(result.decisions.values())) == 1

    def test_unknown_pid_rejected_at_install(self):
        with pytest.raises(ConfigurationError):
            run_consensus(
                "p-consensus",
                {p: "v" for p in range(4)},
                seed=1,
                nemesis=NemesisSpec((CrashOp(at=0.01, pid=9),)),
            )

    def test_schedule_from_time_zero_applies_immediately(self):
        # 3-1 split from t=0: the majority side decides, the minority stalls.
        nem = NemesisSpec(
            (PartitionOp(at=0.0, duration=1.0, groups=((0, 1, 2), (3,))),)
        )
        result = run_consensus(
            "p-consensus",
            {p: "v" for p in range(4)},
            seed=3,
            horizon=1.5,
            check=False,
            nemesis=nem,
        )
        majority = {p: result.decisions.get(p) for p in (0, 1, 2)}
        assert set(majority.values()) == {"v"}
        assert result.decisions.get(3) is None


class TestRsmNemesis:
    def test_crash_and_rejoin_through_nemesis(self):
        from repro.engine import PAPER_LAN
        from repro.rsm.runner import run_rsm

        spec = RsmRunSpec(
            protocol="cabcast-l",
            rate=150.0,
            duration=1.0,
            n=4,
            clients=4,
            seed=7,
            cluster=PAPER_LAN,
            nemesis=NemesisSpec((CrashOp(at=0.5, pid=2),)),
        )
        result = run_rsm(spec)
        # The nemesis crash hook rebuilt replica 2 as a learner and it
        # converged with the authority — same guarantees as crash_at.
        learner = result.learners[2]
        assert learner.digest() == result.replicas[result.authority].digest()
        assert result.committed > 0

    def test_sharded_rsm_accepts_nemesis(self):
        from repro.engine import TopologySpec, run_rsm_spec

        spec = RsmRunSpec(
            protocol="cabcast-l",
            rate=60.0,
            duration=0.3,
            n=3,
            clients=2,
            seed=5,
            topology=TopologySpec(groups=2),
            nemesis=NemesisSpec((DelayOp(at=0.05, duration=0.05, extra=1e-3),)),
        )
        report = run_rsm_spec(spec)
        assert report.committed > 0


class TestDeterminism:
    NEM = NemesisSpec(
        (
            PartitionOp(at=0.004, duration=0.002, groups=((0, 1), (2, 3))),
            DelayOp(at=0.001, duration=0.01, extra=5e-4, jitter=2e-4),
            DropOp(at=0.002, duration=0.005, p=0.3),
            CrashOp(at=0.006, pid=3),
        )
    )

    def _run(self, batch):
        tracer = Tracer()
        result = run_consensus(
            "p-consensus",
            {p: "v" for p in range(4)},
            seed=11,
            check=False,
            batch=batch,
            nemesis=self.NEM,
            tracer=tracer,
            **JITTER,
        )
        return result, tracer

    def test_same_seed_byte_identical(self):
        first, t1 = self._run(batch=True)
        second, t2 = self._run(batch=True)
        assert repr(t1.records) == repr(t2.records)
        assert first.decisions == second.decisions
        assert first.network_stats == second.network_stats

    def test_batched_kernel_matches_serial(self):
        # Satellite: nemesis schedules must not perturb the PR-7 batched
        # drain — the batched and serial kernels produce identical runs.
        batched, t1 = self._run(batch=True)
        serial, t2 = self._run(batch=False)
        assert repr(t1.records) == repr(t2.records)
        assert batched.decisions == serial.decisions
        assert batched.network_stats == serial.network_stats

    def test_kernel_batch_env_var_report_identical(self, monkeypatch):
        # REPRO_KERNEL_BATCH=0 forces batch=False inside workers; reports
        # must be byte-identical modulo the spec's own batch flag (which is
        # part of the cache key by design).
        from repro.engine.pool import run_chunk
        from repro.engine.runner import execute_run

        spec = AbcastRunSpec(
            protocol="cabcast-p",
            rate=80.0,
            duration=0.2,
            n=4,
            seed=13,
            nemesis=NemesisSpec((DropOp(at=0.05, duration=0.05, p=0.5),)),
        )
        batched = json.loads(execute_run(spec).to_json())
        monkeypatch.setenv("REPRO_KERNEL_BATCH", "0")
        ((_, status, payload),) = run_chunk([(0, spec)])
        assert status == "ok"
        serial = json.loads(payload.decode("utf-8"))
        # The report ships under the requested spec, so the parent caches
        # it where a later request for that spec looks.
        assert serial["key"] == spec.cache_key()
        assert "batch" not in serial["spec"]
        for doc in (batched, serial):
            doc.pop("key")
            doc["spec"].pop("batch", None)
        assert batched == serial

    def test_shrink_is_idempotent(self):
        def failing(schedule):
            kinds = {op.op for op in schedule.ops}
            return "crash" in kinds and "drop" in kinds

        first = shrink_schedule(self.NEM, failing)
        assert failing(first.schedule) and len(first.schedule) == 2
        again = shrink_schedule(first.schedule, failing)
        assert again.schedule == first.schedule
        assert again.removed == 0

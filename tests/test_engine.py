"""Tests for the parallel experiment engine: specs, cache, sweep executor."""

import dataclasses
import json
import pickle
import types
import typing

import pytest

from repro import codec
from repro.engine import (
    PAPER_LAN,
    AbcastRunSpec,
    ClusterSpec,
    ConsensusRunSpec,
    ResultCache,
    RunReport,
    RsmRunSpec,
    SweepError,
    estimate_cost,
    execute_run,
    plan_chunks,
    run_sweep,
    spec_from_dict,
    sweep_grid,
)
from repro.engine.context import RunContext
from repro.engine.spec import LAN, LAN_CAPACITY, LAN_DATAGRAM, TopologySpec
from repro.errors import ConfigurationError, EventBudgetExhausted
from repro.harness.factories import ABCAST_FACTORIES, CONSENSUS_FACTORIES
from repro.harness.registry import (
    ABCAST,
    CONSENSUS,
    PROTOCOLS,
    get_protocol,
    name_of,
    protocol_names,
)
from repro.nemesis.spec import CpuSkewOp, DropOp, NemesisSpec
from repro.sim import trace as trace_mod
from repro.sim.network import DelayModel
from repro.sim.trace import Tracer


def quick_spec(**overrides) -> AbcastRunSpec:
    base = dict(
        protocol="cabcast-p",
        rate=40.0,
        duration=0.3,
        n=4,
        seed=7,
        warmup=0.1,
        drain=0.5,
        require_all_delivered=False,
    )
    base.update(overrides)
    return AbcastRunSpec(**base)


class TestRegistry:
    def test_legacy_dicts_are_registry_views(self):
        for name, factory in CONSENSUS_FACTORIES.items():
            assert PROTOCOLS[name].factory is factory
            assert PROTOCOLS[name].kind == CONSENSUS
        for name, factory in ABCAST_FACTORIES.items():
            assert PROTOCOLS[name].factory is factory
            assert PROTOCOLS[name].kind == ABCAST

    def test_names_are_complete(self):
        assert protocol_names(CONSENSUS) == sorted(CONSENSUS_FACTORIES)
        assert protocol_names(ABCAST) == sorted(ABCAST_FACTORIES)

    def test_multipaxos_carries_paper_group_size(self):
        assert get_protocol("multipaxos").default_n == 3

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ConfigurationError, match="cabcast-p"):
            get_protocol("nope", kind=ABCAST)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            get_protocol("cabcast-p", kind=CONSENSUS)

    def test_reverse_lookup(self):
        assert name_of(ABCAST_FACTORIES["wabcast"]) == "wabcast"
        assert name_of(lambda *a: None) is None


class TestSpecs:
    def test_cache_key_is_stable_and_seed_sensitive(self):
        assert quick_spec().cache_key() == quick_spec().cache_key()
        assert quick_spec().cache_key() != quick_spec(seed=8).cache_key()
        assert quick_spec().cache_key() != quick_spec(rate=41.0).cache_key()

    def test_round_trip_with_models(self):
        spec = quick_spec(cluster=PAPER_LAN)
        again = spec_from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.cluster.delay == LAN
        assert again.cluster.datagram_delay == LAN_DATAGRAM
        assert again.cluster.capacity == LAN_CAPACITY

    def test_consensus_spec_round_trip(self):
        spec = ConsensusRunSpec(
            protocol="p-consensus",
            proposals=("a", "b", "c", "d"),
            seed=3,
            crash_at=((0, 0.001),),
        )
        assert spec_from_dict(spec.to_dict()) == spec
        assert spec.n == 4
        assert spec.cache_key() != ConsensusRunSpec(
            protocol="l-consensus", proposals=("a", "b", "c", "d"), seed=3
        ).cache_key()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            quick_spec(rate=0.0)
        with pytest.raises(ConfigurationError):
            quick_spec(workload="chaotic")
        with pytest.raises(ConfigurationError):
            ConsensusRunSpec(protocol="paxos", proposals=("a",))

    def test_unknown_spec_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_from_dict({"kind": "mystery"})


class TestExecuteRun:
    def test_report_contents(self):
        report = execute_run(quick_spec())
        assert report.key == quick_spec().cache_key()
        assert report.offered >= report.delivered > 0
        assert len(report.latencies) == report.delivered
        assert report.summary.count == report.delivered
        assert report.trace_counts["a-broadcast"] > 0
        assert report.trace_counts["a-deliver"] >= report.trace_counts["a-broadcast"]
        assert report.network["bytes_sent"] > 0
        assert set(report.network["by_kind_bytes"]) == set(report.network["by_kind"])
        assert 0 <= report.loss_fraction <= 1

    def test_report_json_round_trip(self):
        report = execute_run(quick_spec())
        data = json.loads(json.dumps(report.to_dict()))
        assert RunReport.from_dict(data).to_dict() == report.to_dict()


def _sharded_spec(**overrides) -> RsmRunSpec:
    # The skew lands in shard 1 only and opens the trace, so the merged
    # first-seen kind order differs from shard 0's.
    return RsmRunSpec(
        protocol="multipaxos",
        rate=120.0,
        duration=0.5,
        n=3,
        clients=4,
        seed=3,
        topology=TopologySpec(groups=4, group_size=3),
        nemesis=NemesisSpec((CpuSkewOp(at=0.0, duration=0.1, pid=4, factor=2.0),)),
        **overrides,
    )


class TestCountingRun:
    """A run ``execute_run`` owns, with no obs knob set, only counts its trace
    kinds — and reports exactly what a recording run reports."""

    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(quick_spec(protocol="wabcast", rate=300.0), id="abcast"),
            pytest.param(
                RsmRunSpec(
                    protocol="cabcast-l",
                    rate=200.0,
                    duration=1.0,
                    clients=4,
                    seed=5,
                    crash_at=((1, 0.4),),
                ),
                id="rsm-crash",
            ),
            pytest.param(_sharded_spec(), id="sharded-serial"),
            pytest.param(_sharded_spec(parallel=True, workers=2), id="sharded-parallel"),
        ],
    )
    def test_report_matches_a_recording_run(self, spec, monkeypatch):
        recorded = execute_run(spec, ctx=RunContext(tracer=Tracer()))

        def no_records(*args):
            raise AssertionError("an untraced run allocated a TraceRecord")

        monkeypatch.setattr(trace_mod, "TraceRecord", no_records)
        counted = execute_run(spec)
        assert counted.to_json() == recorded.to_json()
        assert list(counted.trace_counts.items()) == list(recorded.trace_counts.items())


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = quick_spec()
        assert cache.get(spec) is None
        report = execute_run(spec)
        path = cache.put(report)
        assert path.exists()
        assert cache.get(spec).to_dict() == report.to_dict()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = quick_spec()
        cache.put(execute_run(spec))
        cache.path_for(spec.cache_key()).write_text("{ not json")
        assert cache.get(spec) is None

    def test_foreign_schema_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = quick_spec()
        cache.path_for(spec.cache_key()).parent.mkdir(parents=True)
        cache.path_for(spec.cache_key()).write_text(json.dumps({"schema": "other"}))
        assert cache.get(spec) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = quick_spec()
        cache.put(execute_run(spec))
        path = cache.path_for(spec.cache_key())
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get(spec) is None

    def test_poisoned_report_body_is_a_miss(self, tmp_path):
        # Valid JSON, matching spec — but the report body no longer decodes.
        cache = ResultCache(tmp_path)
        spec = quick_spec()
        cache.put(execute_run(spec))
        path = cache.path_for(spec.cache_key())
        data = json.loads(path.read_text())
        data["summary"] = "not-a-summary"
        path.write_text(json.dumps(data))
        assert cache.get(spec) is None

    def test_undecodable_stored_spec_is_a_miss(self, tmp_path):
        # A hand-edited or version-skewed spec raises ConfigurationError on
        # decode; the cache must treat that as a miss, not crash.
        cache = ResultCache(tmp_path)
        spec = quick_spec()
        cache.put(execute_run(spec))
        path = cache.path_for(spec.cache_key())
        data = json.loads(path.read_text())
        data["spec"]["kind"] = "mystery"
        path.write_text(json.dumps(data))
        assert cache.get(spec) is None
        with pytest.raises(ConfigurationError):
            RunReport.from_dict(data)

    def test_sweep_reruns_poisoned_entry(self, tmp_path):
        spec = quick_spec()
        run_sweep([spec], cache=tmp_path)
        cache = ResultCache(tmp_path)
        cache.path_for(spec.cache_key()).write_text("{\"schema\":")
        sweep = run_sweep([spec], cache=tmp_path)
        assert (sweep.cache_hits, sweep.cache_misses) == (0, 1)
        assert sweep.reports[0].delivered > 0
        # The re-run repaired the entry in place.
        assert (run_sweep([spec], cache=tmp_path).cache_hits) == 1


class TestRunSweep:
    def grid(self):
        return sweep_grid(
            ["cabcast-p", "wabcast"],
            rates=[30, 60],
            duration=0.3,
            warmup=0.1,
            drain=0.5,
            seed=5,
        )

    def test_parallel_matches_serial_hash_for_hash(self):
        specs = self.grid()
        serial = run_sweep(specs, jobs=1)
        # clamp_jobs=False forces the real worker-pool path even on a
        # single-CPU machine, where jobs=4 would clamp to serial execution.
        parallel = run_sweep(specs, jobs=4, clamp_jobs=False)
        assert [r.key for r in serial.reports] == [r.key for r in parallel.reports]
        assert [r.to_dict() for r in serial.reports] == [
            r.to_dict() for r in parallel.reports
        ]
        # Byte-identical canonical JSON: the acceptance bar for the sweep
        # engine — parallel transfer/decoding must not perturb a single byte.
        assert [r.to_json() for r in serial.reports] == [
            r.to_json() for r in parallel.reports
        ]

    def test_second_invocation_served_entirely_from_cache(self, tmp_path):
        specs = self.grid()
        first = run_sweep(specs, jobs=2, cache=tmp_path)
        assert (first.cache_hits, first.cache_misses) == (0, len(specs))
        second = run_sweep(specs, jobs=2, cache=tmp_path)
        assert (second.cache_hits, second.cache_misses) == (len(specs), 0)
        assert second.hit_rate == 1.0
        assert [r.to_dict() for r in first.reports] == [
            r.to_dict() for r in second.reports
        ]

    def test_changed_cells_only_are_rerun(self, tmp_path):
        specs = self.grid()
        run_sweep(specs, cache=tmp_path)
        extended = specs + [quick_spec(seed=99)]
        partial = run_sweep(extended, cache=tmp_path)
        assert (partial.cache_hits, partial.cache_misses) == (len(specs), 1)

    def test_grid_respects_default_n_and_seed_rule(self):
        specs = sweep_grid(
            ["multipaxos"], rates=[20, 50], duration=0.5, seed=10, repeats=2
        )
        assert all(s.n == 3 for s in specs)
        assert [s.seed for s in specs] == [10, 1010, 11, 1011]

    def test_by_protocol_grouping(self):
        sweep = run_sweep(self.grid())
        grouped = sweep.by_protocol()
        assert set(grouped) == {"cabcast-p", "wabcast"}
        assert all(len(reports) == 2 for reports in grouped.values())

    def test_invalid_jobs(self):
        with pytest.raises(ConfigurationError):
            run_sweep([], jobs=0)

    def test_oversubscribed_jobs_clamped_with_note(self):
        sweep = run_sweep(self.grid(), jobs=9999)
        assert len(sweep.reports) == 4
        assert any("clamped" in note for note in sweep.notes)

    def test_exact_jobs_leave_no_note(self):
        assert run_sweep(self.grid(), jobs=1).notes == ()


class TestCostScheduling:
    def test_cost_ranks_by_offered_work(self):
        cheap = quick_spec(rate=20.0)
        dear = quick_spec(rate=500.0)
        assert estimate_cost(dear) > estimate_cost(cheap)
        assert estimate_cost(quick_spec(duration=0.6)) > estimate_cost(
            quick_spec(duration=0.3)
        )

    def test_rsm_cost_counts_clients(self):
        base = dict(protocol="cabcast-l", rate=100.0, duration=0.5, n=4, seed=0)
        assert estimate_cost(RsmRunSpec(clients=16, **base)) > estimate_cost(
            RsmRunSpec(clients=2, **base)
        )

    def test_chunks_cover_every_cell_exactly_once(self):
        items = list(enumerate(quick_spec(rate=rate) for rate in (20, 500, 60, 300)))
        chunks = plan_chunks(items, workers=2)
        flat = [index for chunk in chunks for index, _ in chunk]
        assert sorted(flat) == [0, 1, 2, 3]

    def test_chunks_dispatch_longest_first(self):
        items = list(enumerate(quick_spec(rate=rate) for rate in (20, 500, 60, 300)))
        chunks = plan_chunks(items, workers=2)
        first_costs = [estimate_cost(chunk[0][1]) for chunk in chunks]
        assert first_costs == sorted(first_costs, reverse=True)
        # The most expensive cell leads the plan.
        assert chunks[0][0][0] == 1

    def test_chunk_planning_is_deterministic(self):
        items = list(enumerate(quick_spec(seed=seed) for seed in range(10)))
        assert plan_chunks(items, workers=3) == plan_chunks(items, workers=3)


class TestSweepStreaming:
    def grid(self):
        return sweep_grid(
            ["cabcast-p", "wabcast"],
            rates=[30, 60],
            duration=0.3,
            warmup=0.1,
            drain=0.5,
            seed=5,
        )

    def test_progress_reports_every_fresh_cell(self):
        calls = []
        specs = self.grid()
        run_sweep(specs, progress=lambda done, total, report: calls.append(
            (done, total, report)
        ))
        # Cache-scan summary first (no cache: zero hits), then one call per
        # executed cell, monotonically, ending at the full grid.
        assert calls[0] == (0, len(specs), None)
        assert [done for done, _, _ in calls] == list(range(len(specs) + 1))
        assert all(report is not None for _, _, report in calls[1:])

    def test_progress_counts_cache_hits_up_front(self, tmp_path):
        specs = self.grid()
        run_sweep(specs, cache=tmp_path)
        calls = []
        run_sweep(specs, cache=tmp_path, progress=lambda *call: calls.append(call))
        assert calls == [(len(specs), len(specs), None)]

    def test_parallel_progress_streams_as_cells_land(self):
        calls = []
        specs = self.grid()
        run_sweep(
            specs,
            jobs=2,
            clamp_jobs=False,
            progress=lambda done, total, report: calls.append(done),
        )
        assert calls[-1] == len(specs)
        assert calls == sorted(calls)

    def test_each_completed_cell_is_cached_immediately(self, tmp_path):
        # Write-behind: after every progress call, the reported cell must
        # already be readable from the cache by a fresh instance.
        specs = self.grid()

        def check(done, total, report):
            if report is not None:
                assert ResultCache(tmp_path).get(report.spec) is not None

        run_sweep(specs, cache=tmp_path, progress=check)


class TestInterruptedSweep:
    """A failing cell must surface its spec key while every completed cell
    stays in the cache, so re-running the sweep resumes incrementally."""

    def goods(self):
        return [quick_spec(seed=seed) for seed in (1, 2, 3)]

    def bad(self):
        # Unknown protocol: passes spec validation, fails at execution time.
        return quick_spec(protocol="no-such-protocol", rate=999.0)

    def test_serial_failure_keeps_completed_cells(self, tmp_path):
        goods = self.goods()
        bad = self.bad()
        grid = goods[:2] + [bad] + goods[2:]
        with pytest.raises(SweepError) as excinfo:
            run_sweep(grid, cache=tmp_path)
        assert excinfo.value.spec_key == bad.cache_key()
        assert bad.cache_key() in str(excinfo.value)
        # Cells before the failure completed and were written behind.
        cache = ResultCache(tmp_path)
        assert cache.get(goods[0]) is not None
        assert cache.get(goods[1]) is not None
        assert cache.get(bad) is None
        # Resume: only the unfinished cell re-executes.
        resumed = run_sweep(goods, cache=tmp_path)
        assert (resumed.cache_hits, resumed.cache_misses) == (2, 1)

    def test_parallel_failure_keeps_completed_cells(self, tmp_path):
        goods = self.goods()
        bad = self.bad()
        with pytest.raises(SweepError) as excinfo:
            run_sweep(goods + [bad], jobs=2, cache=tmp_path, clamp_jobs=False)
        assert bad.cache_key() in [key for key, _ in excinfo.value.failures]
        cache = ResultCache(tmp_path)
        assert cache.get(bad) is None
        completed = [spec for spec in goods if cache.get(spec) is not None]
        # Resume proves cache-hit accounting: finished cells hit, the rest run.
        resumed = run_sweep(goods, jobs=2, cache=tmp_path, clamp_jobs=False)
        assert resumed.cache_hits == len(completed)
        assert resumed.cache_misses == len(goods) - len(completed)
        assert all(report is not None for report in resumed.reports)


class TestEventBudget:
    """A run that exhausts ``max_events`` before its horizon is a typed error
    naming its spec, never a checker failure and never a cached report."""

    def rsm_spec(self, **overrides):
        return RsmRunSpec(
            "multipaxos", rate=200, duration=1.0, cluster=PAPER_LAN, max_events=2000,
            **overrides,
        )

    def test_checked_rsm_run_reports_the_budget_not_a_divergence(self):
        from repro.rsm.runner import run_rsm

        spec = self.rsm_spec()
        with pytest.raises(EventBudgetExhausted, match="max_events=2000"):
            run_rsm(spec)
        with pytest.raises(EventBudgetExhausted) as excinfo:
            execute_run(spec)
        assert excinfo.value.spec_key == spec.cache_key()
        assert spec.cache_key() in str(excinfo.value)

    def test_unchecked_run_returns_its_truncated_result_but_no_report(self):
        from repro.rsm.runner import run_rsm

        spec = self.rsm_spec(check=False)
        result = run_rsm(spec)
        assert result.sim.exhausted
        assert result.duration < spec.horizon  # the clock stays where it stopped
        with pytest.raises(EventBudgetExhausted) as excinfo:
            execute_run(spec)
        assert excinfo.value.spec_key == spec.cache_key()

    def test_checked_abcast_run_reports_the_budget(self):
        spec = quick_spec(max_events=300, require_all_delivered=True)
        with pytest.raises(EventBudgetExhausted) as excinfo:
            execute_run(spec)
        assert excinfo.value.spec_key == spec.cache_key()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_surfaces_the_budget_and_caches_nothing(self, tmp_path, jobs):
        grid = sweep_grid(["cabcast-l"], [100], duration=1.0, max_events=500)
        with pytest.raises(SweepError) as excinfo:
            run_sweep(grid + [quick_spec()], jobs=jobs, cache=tmp_path, clamp_jobs=False)
        assert excinfo.value.spec_key == grid[0].cache_key()
        assert "EventBudgetExhausted" in str(excinfo.value)
        assert ResultCache(tmp_path).get(grid[0]) is None

    def test_a_budget_that_suffices_changes_nothing(self):
        spec = quick_spec()
        budgeted = execute_run(quick_spec(max_events=10**6))
        assert budgeted.to_dict()["latencies"] == execute_run(spec).to_dict()["latencies"]
        assert budgeted.sim_time == spec.horizon


class TestResultCacheV2:
    def test_get_many_put_many_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [quick_spec(seed=seed) for seed in (1, 2, 3)]
        reports = [execute_run(spec) for spec in specs[:2]]
        cache.put_many(reports)
        got = cache.get_many(specs)
        assert [r.to_dict() for r in got[:2]] == [r.to_dict() for r in reports]
        assert got[2] is None

    def test_gzip_entries_round_trip(self, tmp_path):
        spec = quick_spec()
        report = execute_run(spec)
        gz = ResultCache(tmp_path, compress=True)
        path = gz.put(report)
        assert path.name.endswith(".json.gz")
        assert not gz.path_for(spec.cache_key()).exists()
        # A plain cache reads compressed entries transparently...
        assert ResultCache(tmp_path).get(spec).to_dict() == report.to_dict()
        # ...and a compressing cache reads legacy .json entries unchanged.
        other = quick_spec(seed=123)
        ResultCache(tmp_path).put(execute_run(other))
        assert gz.get(other) is not None

    def test_gzip_entries_are_deterministic(self, tmp_path):
        # mtime=0 in the gzip header: equal reports → byte-identical entries.
        report = execute_run(quick_spec())
        first = ResultCache(tmp_path / "a", compress=True).put(report)
        second = ResultCache(tmp_path / "b", compress=True).put(report)
        assert first.read_bytes() == second.read_bytes()

    def test_corrupt_gzip_entry_is_a_miss(self, tmp_path):
        spec = quick_spec()
        gz = ResultCache(tmp_path, compress=True)
        path = gz.put(execute_run(spec))
        path.write_bytes(b"\x1f\x8b not actually gzip")
        assert ResultCache(tmp_path).get(spec) is None

    def test_lru_serves_repeat_reads_from_memory(self, tmp_path):
        spec = quick_spec()
        cache = ResultCache(tmp_path)
        cache.put(execute_run(spec))
        first = cache.get(spec)  # disk read populates the LRU
        cache.path_for(spec.cache_key()).unlink()
        assert cache.get(spec) is first  # served from memory, same object
        # A fresh instance has no memory and sees the miss.
        assert ResultCache(tmp_path).get(spec) is None

    def test_lru_is_not_populated_by_put(self, tmp_path):
        # Read-through only: external corruption after a put must still be
        # detected on the first read by this same instance.
        spec = quick_spec()
        cache = ResultCache(tmp_path)
        cache.put(execute_run(spec))
        cache.path_for(spec.cache_key()).write_text("{ corrupted")
        assert cache.get(spec) is None

    def test_lru_can_be_disabled(self, tmp_path):
        spec = quick_spec()
        cache = ResultCache(tmp_path, memory_entries=0)
        cache.put(execute_run(spec))
        assert cache.get(spec) is not None
        cache.path_for(spec.cache_key()).unlink()
        assert cache.get(spec) is None

    def test_lru_evicts_oldest(self, tmp_path):
        cache = ResultCache(tmp_path, memory_entries=2)
        specs = [quick_spec(seed=seed) for seed in (1, 2, 3)]
        for spec in specs:
            cache.put(execute_run(spec))
            cache.get(spec)
        assert len(cache._memory) == 2
        assert specs[0].cache_key() not in cache._memory
        assert specs[2].cache_key() in cache._memory


def _spec_variants():
    drop = NemesisSpec((DropOp(at=0.05, duration=0.05, p=0.5),))
    specs = {
        "abcast": quick_spec(cluster=PAPER_LAN),
        "consensus": ConsensusRunSpec(protocol="l-consensus", proposals=("a", "b", "c", "d")),
        "rsm": RsmRunSpec(protocol="cabcast-l", rate=100.0, duration=0.2, crash_at=((1, 0.1),)),
    }
    for name, spec in list(specs.items()):
        specs[name + "+nemesis"] = dataclasses.replace(spec, nemesis=drop)
    return specs


def _field_type_problems(hint, where: str, opaque: list[str], seen: set) -> list[str]:
    """Where a field of type ``hint`` could hold something mutable."""
    if hint in (int, float, str, bool, type(None)):
        return []
    if hint is typing.Any:
        opaque.append(where)
        return []
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple or origin in (typing.Union, types.UnionType):
        return [
            problem
            for arg in args
            if arg is not Ellipsis
            for problem in _field_type_problems(arg, where, opaque, seen)
        ]
    if hint is DelayModel:  # the codec takes any registered model here
        return [
            problem
            for cls in codec._MODELS.values()
            for problem in _field_type_problems(cls, where, opaque, seen)
        ]
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        if not hint.__dataclass_params__.frozen:
            return [f"{where}: {hint.__name__} is not frozen"]
        if hint in seen:
            return []
        seen.add(hint)
        hints = typing.get_type_hints(hint)
        return [
            problem
            for f in dataclasses.fields(hint)
            for problem in _field_type_problems(
                hints[f.name], f"{hint.__name__}.{f.name}", opaque, seen
            )
        ]
    return [f"{where}: {hint!r} may be mutable"]


class TestServedCellsKeepTheSpec:
    """A served cell is built around the spec object it was asked for, and
    a spec derives its key once (kept in its ``__dict__``)."""

    def test_warm_hit_keeps_the_callers_spec(self, tmp_path):
        spec = quick_spec()
        run_sweep([spec], cache=tmp_path)
        cache = ResultCache(tmp_path)
        report = cache.get(spec)
        assert report.spec is spec
        assert report.key == spec.cache_key()
        assert report.to_json() == cache.path_for(spec.cache_key()).read_text()

    def test_pooled_fresh_results_keep_the_callers_specs(self, tmp_path):
        specs = sweep_grid(["cabcast-p", "wabcast"], rates=[30, 60], duration=0.3,
                           warmup=0.1, drain=0.5, seed=5)  # fmt: skip
        sweep = run_sweep(specs, jobs=2, cache=tmp_path, clamp_jobs=False)
        cache = ResultCache(tmp_path)
        for spec, report in zip(specs, sweep.reports):
            assert report.spec is spec
            assert report.to_json() == cache.path_for(spec.cache_key()).read_text()

    @pytest.mark.parametrize("name", sorted(_spec_variants()))
    def test_pickled_spec_keeps_the_key_a_fresh_spec_derives(self, name):
        spec = _spec_variants()[name]
        key = spec.cache_key()
        clone = pickle.loads(pickle.dumps(spec))
        assert "_canonical_memo" in clone.__dict__  # the memo travelled
        fresh = spec_from_dict(json.loads(json.dumps(spec.to_dict())))
        assert "_canonical_memo" not in fresh.__dict__
        assert clone.cache_key() == fresh.cache_key() == key
        assert clone.matches(fresh.to_dict())
        assert "_canonical_memo" not in dataclasses.replace(spec).__dict__

    def test_no_typed_spec_field_can_hold_a_mutable_value(self):
        opaque: list[str] = []
        seen: set = set()
        problems = [
            problem
            for cls in (AbcastRunSpec, ConsensusRunSpec, RsmRunSpec)
            for problem in _field_type_problems(cls, cls.__name__, opaque, seen)
        ]
        assert problems == []
        # The one untyped field is guarded at run time (next test).
        assert opaque == ["ConsensusRunSpec.proposals"]

    def test_a_spec_holding_a_mutable_value_keeps_no_memo(self):
        spec = ConsensusRunSpec(protocol="l-consensus", proposals=(["a"], "b", "c"))
        before = spec.cache_key()
        spec.proposals[0].append("z")
        assert "_canonical_memo" not in spec.__dict__
        assert spec.cache_key() != before

    @pytest.mark.parametrize("damage", ["corrupt", "spec", "key"])
    def test_damaged_entry_is_a_miss(self, tmp_path, damage):
        spec = quick_spec()
        ResultCache(tmp_path).put(execute_run(spec))
        path = ResultCache(tmp_path).path_for(spec.cache_key())
        data = json.loads(path.read_text())
        if damage == "spec":
            data["spec"]["rate"] = 41.0
        elif damage == "key":
            data["key"] = "0" * 64  # decodes fine, names another entry
        path.write_text("{ not json" if damage == "corrupt" else json.dumps(data))
        assert ResultCache(tmp_path).get(spec) is None

    def test_decoded_sections_share_their_key_strings(self, tmp_path):
        spec = quick_spec()
        ResultCache(tmp_path).put(execute_run(spec))
        first, second = (ResultCache(tmp_path).get(spec) for _ in range(2))
        assert first is not second
        for section in ("network", "trace_counts"):
            for a, b in zip(getattr(first, section), getattr(second, section)):
                assert a is b
        for a, b in zip(first.network["by_kind_bytes"], second.network["by_kind_bytes"]):
            assert a is b
        assert first.network == execute_run(spec).network

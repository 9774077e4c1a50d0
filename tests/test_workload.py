"""Unit tests for workload generation and latency metrics."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.workload.generator import poisson_schedule, uniform_schedule
from repro.workload.metrics import LatencySummary, _percentile, summarize


class TestPoissonSchedule:
    def test_rate_is_respected_on_average(self):
        schedules = poisson_schedule(4, rate=200, duration=10.0, seed=1)
        total = sum(len(s) for s in schedules.values())
        assert total == pytest.approx(2000, rel=0.1)

    def test_sends_are_within_window_and_ordered(self):
        schedules = poisson_schedule(4, rate=50, duration=2.0, seed=2, start=1.0)
        for sends in schedules.values():
            times = [t for t, _ in sends]
            assert all(1.0 <= t < 3.0 for t in times)
            assert times == sorted(times)

    def test_reproducible(self):
        a = poisson_schedule(4, 100, 1.0, seed=3)
        b = poisson_schedule(4, 100, 1.0, seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        a = poisson_schedule(4, 100, 1.0, seed=3)
        b = poisson_schedule(4, 100, 1.0, seed=4)
        assert a != b

    def test_sender_subset(self):
        schedules = poisson_schedule(4, 100, 1.0, seed=5, senders=[2])
        assert set(schedules) == {2}

    def test_payload_callback(self):
        schedules = poisson_schedule(
            2, 50, 1.0, seed=6, payload=lambda pid, i: {"pid": pid, "i": i}
        )
        for pid, sends in schedules.items():
            for idx, (_, payload) in enumerate(sends, start=1):
                assert payload == {"pid": pid, "i": idx}

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            poisson_schedule(4, 0, 1.0)
        with pytest.raises(ConfigurationError):
            poisson_schedule(4, 10, -1.0)


class TestUniformSchedule:
    def test_aggregate_spacing(self):
        schedules = uniform_schedule(2, rate=10, duration=1.0)
        merged = sorted(t for sends in schedules.values() for t, _ in sends)
        gaps = [b - a for a, b in zip(merged, merged[1:])]
        assert all(g == pytest.approx(0.1) for g in gaps)

    def test_round_robin_across_senders(self):
        schedules = uniform_schedule(3, rate=30, duration=1.0)
        counts = {pid: len(s) for pid, s in schedules.items()}
        assert max(counts.values()) - min(counts.values()) <= 1


class TestSummarize:
    def test_basic_statistics(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0

    def test_p95_interpolates(self):
        s = summarize(list(range(1, 101)))
        assert 95 <= s.p95 <= 96

    def test_empty_sample_yields_nan(self):
        s = summarize([])
        assert s.count == 0
        assert math.isnan(s.mean)

    def test_empty_sample_is_explicit_sentinel(self):
        s = summarize([])
        assert s.is_empty
        assert s == LatencySummary.empty()
        assert not summarize([1.0]).is_empty

    def test_scaling_the_empty_sentinel_is_a_no_op(self):
        s = summarize([]).scaled(1e3)
        assert s.is_empty and s.count == 0

    def test_percentile_of_empty_sample_raises(self):
        with pytest.raises(ValueError, match="empty sample"):
            _percentile([], 0.95)

    def test_single_sample(self):
        s = summarize([0.5])
        assert s.stdev == 0.0
        assert s.p95 == 0.5

    def test_scaled(self):
        s = summarize([0.001, 0.002]).scaled(1e3)
        assert s.mean == pytest.approx(1.5)
        assert s.count == 2


class TestSweepDriver:
    def test_repeats_pool_samples(self):
        from repro.harness.factories import cabcast_p
        from repro.workload.experiment import latency_vs_throughput

        single = latency_vs_throughput(
            cabcast_p, 4, [50], duration=0.4, warmup=0.1, drain=0.5, seed=9
        )
        pooled = latency_vs_throughput(
            cabcast_p, 4, [50], duration=0.4, warmup=0.1, drain=0.5, seed=9, repeats=3
        )
        assert pooled[0].offered > single[0].offered
        assert pooled[0].summary.count >= single[0].summary.count
        assert pooled[0].loss_fraction < 0.05

    def test_sweep_point_properties(self):
        from repro.harness.factories import cabcast_p
        from repro.workload.experiment import latency_vs_throughput

        points = latency_vs_throughput(
            cabcast_p, 4, [30, 60], duration=0.4, warmup=0.1, drain=0.5, seed=10
        )
        assert [p.throughput for p in points] == [30, 60]
        for point in points:
            assert point.mean_latency_ms > 0
            assert 0 <= point.loss_fraction <= 1

"""Unit and property tests for the statistics machinery."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.convergence import (
    ConvergenceChecker,
    sample_means_bound,
    stratified_latency,
)
from repro.stats.counters import SampleRecord
from repro.stats.metrics import (
    achieved_utilization,
    ideal_latency,
    normalized_throughput,
)


def sample_with(deliveries, start=0, cycles=100):
    record = SampleRecord(start)
    record.cycles = cycles
    record.deliveries = list(deliveries)
    return record


class TestSampleRecord:
    def test_mean_latency_empty(self):
        assert sample_with([]).mean_latency() == 0.0

    def test_mean_latency(self):
        record = sample_with([(10, 1), (20, 2)])
        assert record.mean_latency() == 15.0


class TestStratifiedLatency:
    def test_single_stratum(self):
        estimate = stratified_latency([(10, 1), (12, 1)], {1: 1.0})
        assert estimate.mean == pytest.approx(11.0)

    def test_weighting(self):
        # Stratum 1 latency 10, stratum 2 latency 100, weights 0.9/0.1.
        deliveries = [(10, 1)] * 5 + [(100, 2)] * 5
        estimate = stratified_latency(deliveries, {1: 0.9, 2: 0.1})
        assert estimate.mean == pytest.approx(0.9 * 10 + 0.1 * 100)

    def test_unobserved_stratum_renormalized(self):
        deliveries = [(10, 1)] * 4
        estimate = stratified_latency(deliveries, {1: 0.5, 16: 0.5})
        assert estimate.mean == pytest.approx(10.0)

    def test_no_data_gives_infinite_error(self):
        estimate = stratified_latency([], {1: 1.0})
        assert estimate.error_bound == math.inf

    def test_zero_variance_gives_zero_bound(self):
        estimate = stratified_latency([(10, 1)] * 10, {1: 1.0})
        assert estimate.error_bound == 0.0

    def test_error_bound_shrinks_with_samples(self):
        small = stratified_latency(
            [(10, 1), (20, 1), (30, 1)], {1: 1.0}
        )
        big = stratified_latency(
            [(10, 1), (20, 1), (30, 1)] * 20, {1: 1.0}
        )
        assert big.error_bound < small.error_bound

    @given(
        latencies=st.lists(
            st.integers(min_value=1, max_value=1000), min_size=2, max_size=60
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_single_stratum_matches_plain_mean(self, latencies):
        deliveries = [(latency, 3) for latency in latencies]
        estimate = stratified_latency(deliveries, {3: 1.0})
        assert estimate.mean == pytest.approx(
            sum(latencies) / len(latencies)
        )

    @given(
        latencies=st.lists(
            st.integers(min_value=1, max_value=100), min_size=4, max_size=40
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_mean_within_stratum_bounds(self, latencies):
        half = len(latencies) // 2
        deliveries = [(lat, 1) for lat in latencies[:half]] + [
            (lat, 2) for lat in latencies[half:]
        ]
        weights = {1: 0.5, 2: 0.5}
        estimate = stratified_latency(deliveries, weights)
        assert min(latencies) <= estimate.mean <= max(latencies)


class TestSampleMeansBound:
    def test_identical_samples_converge(self):
        samples = [sample_with([(10, 1)] * 5) for _ in range(3)]
        mean, bound = sample_means_bound(samples)
        assert mean == 10.0
        assert bound == 0.0

    def test_single_sample_is_inconclusive(self):
        mean, bound = sample_means_bound([sample_with([(10, 1)])])
        assert bound == math.inf

    def test_dispersed_samples_have_positive_bound(self):
        samples = [
            sample_with([(10, 1)]),
            sample_with([(30, 1)]),
            sample_with([(50, 1)]),
        ]
        _, bound = sample_means_bound(samples)
        assert bound > 0


class TestConvergenceChecker:
    def test_needs_min_samples(self):
        checker = ConvergenceChecker({1: 1.0}, min_samples=3)
        samples = [sample_with([(10, 1)] * 10)] * 2
        assert not checker.converged(samples)

    def test_converges_on_stable_data(self):
        checker = ConvergenceChecker({1: 1.0})
        samples = [sample_with([(10, 1)] * 20) for _ in range(3)]
        assert checker.converged(samples)

    def test_rejects_noisy_data(self):
        checker = ConvergenceChecker({1: 1.0})
        samples = [
            sample_with([(10, 1)] * 5),
            sample_with([(200, 1)] * 5),
            sample_with([(10, 1)] * 5),
        ]
        assert not checker.converged(samples)

    def test_estimate_pools_samples(self):
        checker = ConvergenceChecker({1: 1.0})
        samples = [sample_with([(10, 1)]), sample_with([(30, 1)])]
        assert checker.estimate(samples).mean == pytest.approx(20.0)


class TestMetrics:
    def test_ideal_latency_paper_formula(self):
        """16-flit message over 8 hops: 16 + 8 - 1 = 23 cycles."""
        assert ideal_latency(16, 8) == 23

    def test_achieved_utilization(self):
        assert achieved_utilization(512, 100, 1024) == pytest.approx(0.005)

    def test_normalized_throughput_matches_flit_count(self):
        # 10 messages x 4 hops x 16 flits over 1000 cycles, 64 channels.
        value = normalized_throughput(10, 40, 16, 1000, 64)
        assert value == pytest.approx(40 * 16 / (1000 * 64))

    def test_no_deliveries_is_zero(self):
        assert normalized_throughput(0, 0, 16, 1000, 64) == 0.0

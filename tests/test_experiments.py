"""Tests for the experiment harness: runner, sweeps, tables, profiles."""

import pytest

from repro.experiments.profiles import PROFILES, apply_profile
from repro.experiments.runner import run_point
from repro.experiments.sweep import peak_throughput, sweep_algorithms
from repro.experiments.tables import (
    format_figure,
    format_table,
    peak_summary,
)
from repro.simulator.config import SimulationConfig
from repro.util.errors import ConfigurationError
from tests.conftest import tiny_config


@pytest.fixture(scope="module")
def tiny_result():
    return run_point(tiny_config(offered_load=0.3, seed=2))


class TestRunPoint:
    def test_result_has_paper_metrics(self, tiny_result):
        assert tiny_result.average_latency > 0
        assert 0 < tiny_result.achieved_utilization < 1
        assert tiny_result.samples_used >= 3
        assert tiny_result.messages_delivered > 0

    def test_low_load_utilization_tracks_offered(self, tiny_result):
        assert tiny_result.achieved_utilization == pytest.approx(
            0.3, rel=0.2
        )

    def test_hop_class_latencies_increase_with_distance(self, tiny_result):
        strata = tiny_result.hop_class_latency
        assert len(strata) >= 3
        assert strata[max(strata)] > strata[min(strata)]

    def test_vc_usage_collected(self, tiny_result):
        assert len(tiny_result.vc_class_usage) == 2  # e-cube on a torus
        assert sum(tiny_result.vc_class_usage) > 0

    def test_reproducible(self):
        config = tiny_config(offered_load=0.3, seed=2)
        again = run_point(config)
        first = run_point(config)
        assert first.average_latency == again.average_latency
        assert first.achieved_utilization == again.achieved_utilization

    def test_to_dict_roundtrip(self, tiny_result):
        row = tiny_result.to_dict()
        assert row["algorithm"] == "ecube"
        assert row["converged"] in (True, False)

    def test_str_is_informative(self, tiny_result):
        text = str(tiny_result)
        assert "ecube" in text and "latency" in text

    def test_latency_percentiles_ordered(self, tiny_result):
        percentiles = tiny_result.latency_percentiles
        assert set(percentiles) == {50, 95, 99}
        assert percentiles[50] <= percentiles[95] <= percentiles[99]
        # The median sits near the stratified mean at this light load.
        assert percentiles[50] <= tiny_result.average_latency * 2


class TestSweep:
    @pytest.fixture(scope="class")
    def small_sweep(self):
        return sweep_algorithms(
            tiny_config(seed=3), ["ecube"], offered_loads=(0.1, 0.5, 0.9)
        )["ecube"]

    def test_one_result_per_load(self, small_sweep):
        assert [r.offered_load for r in small_sweep] == [0.1, 0.5, 0.9]

    def test_latency_nondecreasing_overall(self, small_sweep):
        assert small_sweep[-1].average_latency > small_sweep[0].average_latency

    def test_peak_throughput(self, small_sweep):
        assert peak_throughput(small_sweep) == max(
            r.achieved_utilization for r in small_sweep
        )

    def test_sweep_algorithms_keys(self):
        series = sweep_algorithms(
            tiny_config(seed=3), ["ecube", "phop"], offered_loads=(0.2,)
        )
        assert set(series) == {"ecube", "phop"}


class TestTables:
    @pytest.fixture(scope="class")
    def series(self):
        return sweep_algorithms(
            tiny_config(seed=4), ["ecube", "nbc"], offered_loads=(0.2, 0.6)
        )

    def test_format_table_layout(self, series):
        table = format_table(series)
        lines = table.splitlines()
        assert "offered" in lines[0]
        assert "ecube" in lines[0] and "nbc" in lines[0]
        assert len(lines) == 2 + 2  # header + rule + two loads

    def test_format_figure_has_both_panels(self, series):
        text = format_figure(series, "Test figure")
        assert "Average latency" in text
        assert "normalized throughput" in text

    def test_peak_summary_mentions_each_algorithm(self, series):
        summary = peak_summary(series)
        assert "ecube" in summary and "nbc" in summary

    def test_empty_series(self):
        assert format_table({}) == "(no data)"


class TestProfiles:
    def test_all_profiles_valid(self):
        for name in PROFILES:
            config = apply_profile(SimulationConfig(), name)
            assert config.radix in (4, 8, 16)

    def test_paper_profile_is_16x16(self):
        config = apply_profile(SimulationConfig(), "paper")
        assert config.radix == 16
        assert config.max_samples == 10

    def test_unknown_profile_raises(self):
        with pytest.raises(ConfigurationError):
            apply_profile(SimulationConfig(), "warp-speed")

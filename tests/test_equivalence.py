"""Tests for :mod:`repro.analysis.equivalence`.

The dual criterion is the load-bearing logic: a metric is discrepant
only when the object (strict) and batch (relaxed) means differ
practically (beyond ``rel_tol``) AND statistically (beyond ``z`` Welch
standard errors).  These tests pin each arm of the criterion with
hand-built samples, then run one real (tiny) point through
``compare_point`` to check the harness wiring: same seeds, both
engines, all metrics reported.
"""

import dataclasses

import pytest

from repro.analysis.check import main as check_main
from repro.analysis.equivalence import (
    SUITE_ALGORITHMS,
    SUITE_TOPOLOGIES,
    compare_metric,
    compare_point,
    run_suite,
)
from repro.experiments.runner import run_point
from tests.conftest import tiny_config


class TestCompareMetric:
    def test_identical_samples_pass(self):
        samples = [1.0, 1.1, 0.9, 1.05]
        cmp = compare_metric("m", samples, list(samples), 0.05, 3.0)
        assert cmp.passed
        assert cmp.rel_diff == 0.0
        assert cmp.mean_strict == cmp.mean_relaxed

    def test_large_confident_difference_fails(self):
        strict = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
        relaxed = [2.0, 2.01, 1.99, 2.0, 2.02, 1.98]
        cmp = compare_metric("m", strict, relaxed, 0.05, 3.0)
        assert not cmp.passed
        assert cmp.rel_diff == pytest.approx(1.0, rel=0.05)

    def test_practical_but_not_statistical_passes(self):
        # Means differ by ~50% but the samples are so noisy that the
        # difference sits within z standard errors: seed noise.
        strict = [0.1, 2.0, 0.2, 1.9]
        relaxed = [1.8, 0.3, 1.7, 0.1]
        cmp = compare_metric("m", strict, relaxed, 0.05, 3.0)
        assert cmp.passed

    def test_statistical_but_not_practical_passes(self):
        # Tiny (0.1%) offset measured with near-zero variance: highly
        # confident, practically immaterial.
        strict = [1.0, 1.0, 1.0, 1.0]
        relaxed = [1.001, 1.001, 1.001, 1.001]
        cmp = compare_metric("m", strict, relaxed, 0.05, 3.0)
        assert cmp.rel_diff == pytest.approx(0.001, rel=1e-6)
        assert cmp.passed

    def test_zero_mean_uses_absolute_floor(self):
        # A metric that is exactly zero under strict must tolerate a
        # relaxed value judged against the floor, not against 0.
        cmp = compare_metric(
            "m", [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.05, 3.0
        )
        assert cmp.passed
        assert cmp.rel_diff == 0.0

    def test_single_sample_has_zero_variance(self):
        # n=1 gives se=0: any practical difference is then confident,
        # so the criterion degrades to the practical arm alone.
        bad = compare_metric("m", [1.0], [2.0], 0.05, 3.0)
        assert not bad.passed
        good = compare_metric("m", [1.0], [1.01], 0.05, 3.0)
        assert good.passed

    def test_describe_marks_verdict(self):
        good = compare_metric("lat", [1.0, 1.0], [1.0, 1.0], 0.05, 3.0)
        assert good.describe().startswith("[ok ]")
        bad = compare_metric("lat", [1.0, 1.0], [9.0, 9.0], 0.05, 3.0)
        assert bad.describe().startswith("[FAIL]")


class TestSuiteConstants:
    def test_suite_covers_every_algorithm_and_topology(self):
        assert set(SUITE_ALGORITHMS) == {
            "ecube", "2pn", "nbc", "nhop", "nlast", "phop"
        }
        assert set(SUITE_TOPOLOGIES) == {"mesh", "torus"}


class TestComparePoint:
    def test_tiny_point_reports_all_metrics(self):
        config = tiny_config(
            algorithm="nbc",
            offered_load=0.3,
            flow_control="conservative",
        )
        # rel_tol is opened up on this wiring test: on a 4x4 network
        # the mean wait is ~1.2 cycles, so the relaxed mode's small
        # absolute wait offset (see docs/performance.md, "identity
        # modes") is amplified in relative terms.  The publication
        # check is the radix-8 suite (repro-check equivalence), where the
        # offset sits well inside the 5% gate.
        report = compare_point(
            config, seeds=[11, 12, 13, 14], rel_tol=0.25
        )
        assert report.algorithm == "nbc"
        assert report.num_seeds == 4
        names = {metric.name for metric in report.metrics}
        assert {
            "average_latency",
            "average_wait",
            "achieved_utilization",
            "delivered_throughput",
            "messages_delivered",
        } <= names
        assert any(name.startswith("vc_share_") for name in names)
        # The batch backend must be equivalent to the object engine
        # here; a failure on this tiny point is a genuine kernel
        # regression.
        assert report.passed, [
            metric.describe() for metric in report.failures
        ]

    def test_reference_side_is_the_object_engine(self):
        """``mean_strict`` is the per-seed ``run_point`` mean, exactly."""
        config = tiny_config(
            algorithm="ecube", offered_load=0.3,
            flow_control="conservative",
        )
        seeds = [21, 22, 23]
        report = compare_point(config, seeds=seeds, rel_tol=0.25)
        latencies = [
            run_point(dataclasses.replace(config, seed=seed)).average_latency
            for seed in seeds
        ]
        (latency,) = [
            m for m in report.metrics if m.name == "average_latency"
        ]
        assert latency.mean_strict == sum(latencies) / len(latencies)

    def test_cli_smoke_single_point(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = check_main(
            [
                "equivalence",
                "--smoke",
                "--seeds", "3",
                "--algorithms", "ecube",
                "--topologies", "torus",
                "--json", out,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "1/1 points passed" in captured.err
        import json

        payload = json.loads(open(out).read())
        assert payload[0]["algorithm"] == "ecube"
        assert all(
            metric["passed"] for metric in payload[0]["metrics"]
        )


def test_run_suite_progress_callback():
    lines = []
    reports = run_suite(
        algorithms=["ecube"],
        topologies=["torus"],
        num_seeds=2,
        radix=4,
        offered_load=0.2,
        message_length=4,
        samples=2,
        warmup_cycles=150,
        sample_cycles=200,
        progress=lines.append,
    )
    assert len(reports) == 1
    assert lines and "torus/ecube" in lines[0]
    assert reports[0].passed

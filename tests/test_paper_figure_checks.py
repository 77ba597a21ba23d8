"""Unit tests for the claim tables, using synthetic sweep series.

The claim tables encode the paper's qualitative claims; these tests pin
their logic without running any simulation, so regressions in the claim
definitions are caught instantly.
"""

import csv
from pathlib import Path

import pytest

from repro.experiments.paper_figures import (
    ARTIFACTS,
    check_figure3,
    evaluate,
    format_checks,
    series_rows,
)
from repro.stats.summary import SimulationResult

RESULTS = Path(__file__).resolve().parents[1] / "results"
LOW_LOAD = "all algorithms have similar latency at low load"


def checks(artifact, series):
    """The artifact's claim verdicts on per-algorithm series."""
    return evaluate(ARTIFACTS[artifact].claims, series_rows(series))


def result(algorithm, load, latency, utilization):
    return SimulationResult(
        algorithm=algorithm,
        traffic="synthetic",
        offered_load=load,
        injection_rate=0.01,
        average_latency=latency,
        latency_error_bound=0.5,
        average_wait=1.0,
        achieved_utilization=utilization,
        delivered_throughput=utilization,
        samples_used=3,
        converged=True,
        cycles_simulated=1000,
        messages_generated=100,
        messages_delivered=100,
        messages_refused=0,
    )


def series_from(peaks, low_latency=20.0):
    """One low-load + one high-load point per algorithm."""
    return {
        name: [
            result(name, 0.1, low_latency, 0.1),
            result(name, 0.9, low_latency * 10, peak),
        ]
        for name, peak in peaks.items()
    }


PAPERLIKE = {
    "ecube": 0.34,
    "nlast": 0.25,
    "2pn": 0.30,
    "phop": 0.72,
    "nhop": 0.55,
    "nbc": 0.63,
}


class TestFigure3Checks:
    def test_paperlike_series_passes(self):
        checks = check_figure3(series_from(PAPERLIKE))
        assert checks and all(passed for _, passed in checks)

    def test_detects_hop_scheme_regression(self):
        broken = dict(PAPERLIKE, phop=0.2)
        checks = dict(check_figure3(series_from(broken)))
        assert not checks["phop peak throughput exceeds e-cube (uniform)"]

    def test_partial_series_is_fine(self):
        checks = check_figure3(series_from({"ecube": 0.3, "nbc": 0.6}))
        assert all(passed for _, passed in checks)


class TestFigure4Checks:
    def test_paperlike_series_passes(self):
        verdicts = checks("4", series_from(PAPERLIKE))
        assert all(passed for _, passed in verdicts)

    def test_detects_nbc_balance_regression(self):
        broken = dict(PAPERLIKE, nbc=0.3)
        verdicts = dict(checks("4", series_from(broken)))
        assert not verdicts["nbc at least matches nhop under hotspot traffic"]

    def test_hotspot_nlast_check_uses_sustained_throughput(self):
        """nlast may peak early; only the final-load comparison counts."""
        series = series_from(PAPERLIKE)
        # Give nlast a huge early peak but weak sustained throughput.
        series["nlast"][0] = result("nlast", 0.1, 20.0, 0.5)
        verdicts = dict(checks("4", series))
        key = (
            "e-cube sustains at least nlast's throughput past "
            "saturation (hotspot)"
        )
        assert verdicts[key]

    def test_sustained_throughput_is_a_seed_mean(self):
        """Two seeds per load: e-cube's mean at load 1.0 is 0.30 and
        nlast's 0.35, so e-cube does not sustain 95% of nlast's level,
        though nlast's last seed alone (0.20) would say it does."""
        two_seeds = {"ecube": (0.30, 0.30), "nlast": (0.50, 0.20)}
        series = {
            name: [
                result(name, 0.1, 20.0, 0.1),
                result(name, 0.1, 20.0, 0.1),
                result(name, 1.0, 200.0, high[0]),
                result(name, 1.0, 200.0, high[1]),
            ]
            for name, high in two_seeds.items()
        }
        verdicts = dict(checks("4", series))
        key = (
            "e-cube sustains at least nlast's throughput past "
            "saturation (hotspot)"
        )
        assert not verdicts[key]


class TestFigure5Checks:
    def test_paperlike_local_series_passes(self):
        local = dict(PAPERLIKE, **{"2pn": 0.37, "ecube": 0.30, "nbc": 0.72})
        verdicts = checks("5", series_from(local))
        assert all(passed for _, passed in verdicts)

    def test_detects_2pn_regression(self):
        local = dict(PAPERLIKE, **{"2pn": 0.2, "ecube": 0.3})
        verdicts = dict(checks("5", series_from(local)))
        assert not verdicts["2pn beats e-cube under local traffic"]


class TestVctChecks:
    def test_paperlike_vct_passes(self):
        vct = {"ecube": 0.35, "2pn": 0.6, "nbc": 0.65}
        assert all(passed for _, passed in checks("vct", series_from(vct)))

    def test_detects_2pn_not_catching_up(self):
        vct = {"ecube": 0.35, "2pn": 0.4, "nbc": 0.65}
        verdicts = dict(checks("vct", series_from(vct)))
        assert not verdicts["2pn performs about as well as nbc under VCT"]


class TestLowLoadCheck:
    def test_similar_latencies_pass(self):
        series = series_from({"a": 0.3, "b": 0.4})
        assert dict(check_figure3(series))[LOW_LOAD]

    def test_divergent_latencies_fail(self):
        series = {
            "a": [result("a", 0.1, 20.0, 0.1)],
            "b": [result("b", 0.1, 60.0, 0.1)],
        }
        assert not dict(check_figure3(series))[LOW_LOAD]


class TestFormatting:
    def test_format_checks_marks_pass_fail(self):
        text = format_checks([("good", True), ("bad", False)])
        assert "[PASS] good" in text
        assert "[FAIL] bad" in text


class TestCommittedResults:
    """The figure claims on the committed scaled-profile CSVs."""

    @pytest.mark.parametrize(
        "figure, stem, count",
        [("3", "fig3", 6), ("4", "fig4", 6), ("5", "fig5", 7),
         ("vct", "figvct", 2)],
    )
    def test_every_figure_claim_holds(self, figure, stem, count):
        with open(RESULTS / f"{stem}_scaled.csv", newline="") as stream:
            rows = [
                {key: _number(value) for key, value in row.items()}
                for row in csv.DictReader(stream)
            ]
        verdicts = evaluate(ARTIFACTS[figure].claims, rows)
        assert [text for text, _ in verdicts] == [
            claim.text for claim in ARTIFACTS[figure].claims
        ]
        assert len(verdicts) == count
        assert all(passed for _, passed in verdicts)


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text

"""Tests of the ledger itself.

Run explicitly — the tier-1 suite's ``testpaths`` does not reach here::

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import checks, compare, metrics, trace
from benchmarks.ledger.clock import HostClock
from benchmarks.ledger.trace import Span
from benchmarks.ledger.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestContract:
    def test_is_what_the_metric_tables_generate(self, contract):
        whys = {name: cls.why for name, cls in WORKLOADS.items()}
        assert contract == metrics.contract(whys)

    def test_shape_and_limits(self, contract):
        assert set(contract) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer",
        }
        assert contract["paths"] == ["benchmarks/ledger"]
        assert 1 <= contract["run_seconds"] <= 60
        assert 2 <= len(contract["workloads"]) <= 8
        assert 1 <= len(contract["end_to_end"]) <= 16
        assert 1 <= len(contract["per_layer"]) <= 128
        for workload in contract["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200
            assert "\n" not in workload["why"]
        # 4 + 22 x workloads runs, each at most run_seconds plus a
        # quarter pass of overshoot and the start-up of its processes
        # (8 s together), inside 3420 s.
        runs = 4 + 22 * len(contract["workloads"])
        assert runs * (contract["run_seconds"] + 8) <= 3420

    def test_every_metric_is_fully_described(self, contract):
        names = []
        for entry in contract["end_to_end"]:
            assert set(entry) == {"name", "unit", "better", "bound"}
            assert 0 < entry["bound"] <= 0.25
            names.append(entry["name"])
        for entry in contract["per_layer"]:
            assert set(entry) == {"name", "unit", "better"}
            names.append(entry["name"])
        names += [w["name"] for w in contract["workloads"]]
        assert len(names) == len(set(names)), "a name is used twice"
        for entry in contract["end_to_end"] + contract["per_layer"]:
            assert NAME.fullmatch(entry["name"]), entry
            assert UNIT.fullmatch(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher"), entry
        setup = [e for e in contract["end_to_end"] if e["name"] == "setup_s"]
        assert setup == [{
            "name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(e["bound"] for e in contract["end_to_end"]),
        }]

    def test_every_layer_metric_names_what_it_moves_and_where(self):
        end_to_end = {m.name for m in metrics.END_TO_END}
        for layer in metrics.PER_LAYER:
            assert layer.moves in end_to_end | {"-"}, layer
            assert layer.on, layer
            for workload in layer.on.split(", "):
                assert workload in metrics.WORKLOAD_NAMES + (
                    "every workload", "-",
                ), layer


class TestSpans:
    #: root 0..10 holds a (1..4) and b (5..9); b holds c (6..8).
    SPANS = [
        Span("ledger.pass", -1, 0.0, 10.0, 0, False),
        Span("x.a", 0, 1.0, 4.0, 7, False),
        Span("x.b", 0, 5.0, 9.0, 0, False),
        Span("y.deep.c", 2, 6.0, 8.0, 5, True),
    ]

    def test_self_time_is_duration_minus_direct_children(self):
        assert trace.self_times(self.SPANS) == [3.0, 3.0, 2.0, 2.0]
        # ... so the self times of a pass add up to its root, exactly.
        assert sum(trace.self_times(self.SPANS)) == self.SPANS[0].duration

    def test_aggregate_layers_and_coverage(self):
        stats = trace.aggregate(self.SPANS)
        assert stats["x.a"] == trace.SpanStats(1, 3.0, 3.0, 7, 0)
        assert stats["y.deep.c"] == trace.SpanStats(1, 2.0, 2.0, 5, 1)
        assert trace.layer_of("y.deep.c") == "y.deep"
        assert trace.layer_self_seconds(stats, "x") == 5.0
        assert trace.layer_self_seconds(stats, "y") == 2.0
        assert trace.layer_self_seconds(stats, "y.de") == 0.0
        assert trace.coverage(self.SPANS) == pytest.approx(0.7)

    def test_recorder_nests_and_marks_errors(self):
        recorder = trace.Recorder()

        def inner(n):
            if n < 0:
                raise ValueError(n)
            return n

        inner_t = recorder.wrap("l.inner", inner, work_of=lambda n: n)
        outer_t = recorder.wrap("l.outer", lambda n: inner_t(n) + 1)
        assert outer_t(3) == 4
        with pytest.raises(ValueError):
            outer_t(-1)
        spans = recorder.closed_spans()
        assert [(s.name, s.parent, s.work, s.error) for s in spans] == [
            ("l.outer", -1, 0, False),
            ("l.inner", 0, 3, False),
            ("l.outer", -1, 0, True),
            ("l.inner", 2, 0, True),
        ]

    def test_ndjson_gives_the_spans_of_one_point_one_unit(self, tmp_path):
        path = tmp_path / "spans.ndjson"
        trace.write_ndjson(self.SPANS, str(path), "w", unit_names=("x.b",))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["unit"] for row in rows] == [0, 0, 2, 2]
        assert rows[3]["parent"] == 2 and rows[3]["workload"] == "w"


def _patched_attributes():
    targets = [
        (owner, attr)
        for _, owners, _ in trace.span_targets() for owner, attr in owners
    ] + [(owner, attr) for _, owner, attr in trace.count_targets()]
    return [(o, a, vars(o).get(a)) for o, a in targets]


class TestTracedRun:
    def test_patches_are_fully_restored(self):
        before = _patched_attributes()
        recorder = trace.Recorder()
        with trace.install(recorder):
            during = _patched_attributes()
            assert all(
                now is not was
                for (_, _, now), (_, _, was) in zip(during, before)
            )
        assert _patched_attributes() == before

    def test_patches_are_restored_when_the_run_raises(self):
        before = _patched_attributes()
        with pytest.raises(RuntimeError):
            with trace.install(trace.Recorder()):
                raise RuntimeError("mid-run")
        assert _patched_attributes() == before

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_traced_and_untraced_digests_are_equal(self, name, tmp_path):
        workload = WORKLOADS[name](seed=7, smoke=True, workdir=str(tmp_path))
        plain = workload.run_pass(HostClock())
        recorder = trace.Recorder()
        with trace.install(recorder):
            traced = workload.run_pass(HostClock())
        assert recorder.closed_spans()
        assert [checks.digest(p.result) for p in traced.points] == [
            checks.digest(p.result) for p in plain.points
        ]
        assert not plain.failures and not traced.failures
        for point in plain.points:
            assert checks.point_failures(point) == []
        assert checks.zero_load_probe(*workload.probe()) == []


class TestReferences:
    def test_band_accepts_its_seeds_and_rejects_a_broken_model(self):
        band = {"lo": 0.40, "hi": 0.44, "mean": 0.42, "sd": 0.01}
        assert checks._in_band(0.42, band)
        assert checks._in_band(0.36, band)   # lo - 10% of the mean
        assert not checks._in_band(0.30, band)
        assert not checks._in_band(0.60, band)

    @pytest.mark.parametrize("name", metrics.WORKLOAD_NAMES)
    def test_committed_references_cover_every_workload(self, name):
        for seed in checks.REFERENCE_SEEDS:
            own = checks._load(checks._seed_path(name, seed))
            assert own is not None and own["seed"] == seed
            assert own["cells"] and own["digests"]
        band = checks._load(checks._band_path(name))
        assert band is not None
        assert band["seeds"] == sorted(checks.BAND_SEEDS)
        assert {c["id"] for c in band["cells"]} == {
            c["id"] for c in own["cells"]
        }


class TestCompare:
    WALL = metrics.END_TO_END[0]
    assert WALL.name == "wall_s" and WALL.bound == 0.25

    def verdict(self, parent, change):
        return compare.judge(self.WALL, "w", parent, change).verdict

    def test_verdicts(self):
        steady = [10.0, 10.1, 10.2]
        assert self.verdict(steady, [10.1, 10.2, 10.3]) == "within bound"
        assert self.verdict(steady, [11.5, 11.6, 11.7]) == "within bound"
        assert self.verdict(steady, [13.0, 13.1, 13.2]) == "worse"
        assert self.verdict(steady, [9.0, 9.1, 9.2]) == "better"
        noisy = [8.0, 10.0, 12.0]
        assert self.verdict(noisy, [9.5, 10.5, 11.0]) == "unresolved"
        # Wider than the bound, but every run beats every parent run.
        assert self.verdict(noisy, [6.0, 7.0, 7.5]) == "better"

    def test_pairs_rule_needs_ten_pairs_and_nine_wins(self):
        parent = [10.0 + 0.01 * i for i in range(10)]
        wins_all = [value - 1.0 for value in parent]
        assert compare.judge(self.WALL, "w", parent, wins_all).gain == "yes"
        wins_eight = wins_all[:8] + [value + 1.0 for value in parent[8:]]
        assert compare.judge(self.WALL, "w", parent, wins_eight).gain == "no"
        assert compare.judge(self.WALL, "w", parent[:9], wins_all[:9]).gain \
            == "-"

    def test_exact_metrics_have_no_tolerance(self):
        passed = next(
            m for m in metrics.END_TO_END if m.name == "passed_share"
        )
        row = compare.judge(passed, "w", [1.0] * 3, [1.0, 1.0, 59 / 60])
        assert row.verdict == "within bound"  # the median still holds
        row = compare.judge(passed, "w", [1.0] * 3, [59 / 60] * 3)
        assert row.verdict == "worse"


def test_smoke_prints_every_metric_name(tmp_path):
    """The whole ledger at 4x4: every workload, traced, in a few seconds."""
    report = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "--smoke", "--traced",
         "--repeats", "1", "--output", str(report)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for metric in metrics.END_TO_END + metrics.PER_LAYER:
        assert re.search(
            rf"^\s+{re.escape(metric.name)}\s", done.stdout, re.MULTILINE
        ), metric.name
    data = json.loads(report.read_text())
    assert data["claim"] is None
    assert set(data["workloads"]) == set(metrics.WORKLOAD_NAMES)
    stamp = data["provenance"]
    assert stamp["code_digest"] and stamp["git_sha"] and "dirty" in stamp
    for entry in data["workloads"].values():
        assert all(run["correct"] for run in entry["runs"])
        assert entry["traced"]["correct"]
        assert set(entry["traced"]["metrics"]) == {
            m.name for m in metrics.PER_LAYER
        }
    # Reports of the same code and seed compare as stable on every count.
    assert compare.exact_differences(data, data) == []

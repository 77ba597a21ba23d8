"""Tests for the ``repro-bench --compare`` regression gate.

Synthetic report dicts only — no engine runs.  The contract: gated
rows fail on same-host throughput regressions beyond tolerance, the
congested batch rows are additionally held to flit-event throughput,
the ideal-flow-control congested row to its (unscaled) transmit poll
efficiency, and rows from older baseline schemas that lack a gated field are
skipped with a warning instead of failing the gate; the informational
cold-start and batch-phase rows are listed, never judged, and skipped
with a warning against a baseline that predates them.
"""

import copy

from repro.benchmarks.engine_speed import _GATED_ROWS, compare_reports

HOST = {"machine": "test", "cpu_count": 4}

#: One informational cold-start row (schema 7).
COLD_ROW = {
    "seconds": 0.75,
    "entries_interned": 10437,
    "candidates_calls": 10437,
    "gc_collections": [55, 5, 0],
}


#: One informational batch phase split (schema 8), two of its phases.
PHASE_ROW = {
    "timed_cycles": 600,
    "seconds": 1.5,
    "other_seconds": 0.3,
    "phases": {
        "route": {"seconds": 0.6, "calls": 600},
        "transmit": {"seconds": 0.6, "calls": 600},
    },
}


def report(batch_relaxed=None):
    """A minimal single-algorithm report with every gated row."""
    rows = {
        "idle": {"cycles_per_sec": 1000.0},
        "congested": {"cycles_per_sec": 500.0, "moves_per_poll": 0.8},
        "congested_conservative": {"cycles_per_sec": 400.0},
        "batch_relaxed_b32": batch_relaxed or {
            "aggregate_cycles_per_sec": 12000.0,
            "flit_events_per_sec": 140000.0,
        },
    }
    return {"host": dict(HOST), "engines": {"ecube": rows}}


def half_speed(source):
    """*source* as a machine half as fast would measure it."""
    slow = copy.deepcopy(source)
    for row in slow["engines"]["ecube"].values():
        for field in row:
            if field.endswith("_per_sec"):  # counts do not slow down
                row[field] = row[field] / 2.0
    return slow


class TestCompareGate:
    def test_identical_reports_pass(self):
        ok, lines = compare_reports(report(), report(), tolerance=0.2)
        assert ok
        assert not any("REGRESSION" in line for line in lines)

    def test_flit_event_rate_is_gated(self):
        assert ("batch_relaxed_b32", "flit_events_per_sec") in _GATED_ROWS
        # Cycle rate holds but flit throughput collapses — the kind of
        # regression a cycles-only gate would miss (stalled traffic
        # spins cycles without moving flits).
        current = report(batch_relaxed={
            "aggregate_cycles_per_sec": 12000.0,
            "flit_events_per_sec": 60000.0,
        })
        ok, lines = compare_reports(current, report(), tolerance=0.2)
        assert not ok
        failing = [line for line in lines if "REGRESSION" in line]
        assert len(failing) == 1
        assert "batch_relaxed_b32" in failing[0]
        assert "flit-ev/s" in failing[0]

    def test_missing_field_in_old_baseline_warns_not_fails(self):
        baseline = report()
        row = baseline["engines"]["ecube"]["batch_relaxed_b32"]
        del row["flit_events_per_sec"]
        ok, lines = compare_reports(report(), baseline, tolerance=0.2)
        assert ok
        skips = [line for line in lines if "lacks" in line]
        assert len(skips) == 1
        assert all("baseline" in line for line in skips)

    def test_missing_field_in_current_warns_not_fails(self):
        current = report()
        row = current["engines"]["ecube"]["batch_relaxed_b32"]
        del row["flit_events_per_sec"]
        ok, lines = compare_reports(current, report(), tolerance=0.2)
        assert ok
        assert any(
            "current row lacks 'flit_events_per_sec'" in line
            for line in lines
        )

    def test_cross_host_regression_downgrades_to_warning(self):
        current = report(batch_relaxed={
            "aggregate_cycles_per_sec": 12000.0,
            "flit_events_per_sec": 60000.0,
        })
        current["host"] = {"machine": "other", "cpu_count": 8}
        ok, lines = compare_reports(current, report(), tolerance=0.2)
        assert ok
        assert any("WARN (host differs)" in line for line in lines)

    def test_idle_rescaling_absorbs_machine_speed(self):
        # Same host, everything uniformly 2x slower including idle:
        # the idle-derived scale normalizes it away.
        current = half_speed(report())
        ok, lines = compare_reports(current, report(), tolerance=0.2)
        assert ok
        assert any("scale" in line and "0.500" in line for line in lines)

    def test_poll_efficiency_is_gated_unscaled(self):
        assert ("congested", "moves_per_poll") in _GATED_ROWS
        # Everything (idle too) at half speed, poll efficiency back at
        # its pre-disarming level: the machine scale must not excuse it.
        current = half_speed(report())
        current["engines"]["ecube"]["congested"]["moves_per_poll"] = 0.6
        ok, lines = compare_reports(current, report(), tolerance=0.2)
        assert not ok
        failing = [line for line in lines if "REGRESSION" in line]
        assert len(failing) == 1 and "moves/poll" in failing[0]
        current["engines"]["ecube"]["congested"]["moves_per_poll"] = 0.8
        assert compare_reports(current, report(), tolerance=0.2)[0]

    def test_schema4_baseline_without_poll_efficiency_warns(self):
        baseline = report()
        del baseline["engines"]["ecube"]["congested"]["moves_per_poll"]
        ok, lines = compare_reports(report(), baseline, tolerance=0.2)
        assert ok
        assert any(
            "baseline row lacks 'moves_per_poll'" in line for line in lines
        )

    def test_schema5_baseline_strict_batch_rows_are_skipped(self):
        """A baseline from before the strict stepper went still carries
        `batch_b1/8/32`; the gate neither compares nor misses them."""
        assert not any(row.startswith("batch_b") for row, _ in _GATED_ROWS)
        baseline = report()
        for lanes in (1, 8, 32):
            baseline["engines"]["ecube"][f"batch_b{lanes}"] = {
                "aggregate_cycles_per_sec": 1e9,
                "flit_events_per_sec": 1e9,
            }
        ok, lines = compare_reports(report(), baseline, tolerance=0.2)
        assert ok
        assert not any("batch_b" in line for line in lines)

    def test_schema6_baseline_without_cold_rows_warns_not_fails(self):
        """The cold rows came with schema 7; against an older baseline
        they are skipped with a warning and the gate still judges."""
        current = report()
        current["cold"] = {"cold_ladder": dict(COLD_ROW)}
        ok, lines = compare_reports(current, report(), tolerance=0.2)
        assert ok
        skips = [line for line in lines if "cold_ladder" in line]
        assert len(skips) == 1
        assert "baseline lacks the cold rows" in skips[0]

    def test_cold_rows_are_listed_never_judged(self):
        baseline = report()
        baseline["cold"] = {"cold_ladder": dict(COLD_ROW)}
        current = report()
        current["cold"] = {
            "cold_ladder": dict(
                COLD_ROW, seconds=10 * COLD_ROW["seconds"],
                candidates_calls=30000,
            )
        }
        ok, lines = compare_reports(current, baseline, tolerance=0.2)
        assert ok
        listed = [line for line in lines if "cold_ladder" in line]
        assert len(listed) == 1
        assert "30000 vs 10437 candidates() calls" in listed[0]
        assert "(info)" in listed[0] and "REGRESSION" not in listed[0]
        # Still not a substitute for the gated rows.
        current["engines"] = {}
        assert not compare_reports(current, baseline, tolerance=0.2)[0]

    def test_schema7_baseline_without_batch_phases_warns_not_fails(self):
        """The phase split came with schema 8; against an older baseline
        it is skipped with a warning and the gate still judges."""
        current = report()
        current["batch_phases"] = {"ecube": copy.deepcopy(PHASE_ROW)}
        ok, lines = compare_reports(current, report(), tolerance=0.2)
        assert ok
        skips = [line for line in lines if "batch_phases" in line]
        assert len(skips) == 1
        assert "baseline lacks the batch phase rows" in skips[0]

    def test_batch_phases_are_listed_never_judged(self):
        baseline = report()
        baseline["batch_phases"] = {"ecube": copy.deepcopy(PHASE_ROW)}
        current = report()
        slow = copy.deepcopy(PHASE_ROW)
        slow["phases"]["route"]["seconds"] = 6.0  # ten times the baseline's
        current["batch_phases"] = {"ecube": slow}
        ok, lines = compare_reports(current, baseline, tolerance=0.2)
        assert ok
        listed = [line for line in lines if "batch_phases" in line]
        assert len(listed) == 1
        assert "route 10.00 (1.00)" in listed[0]
        assert "transmit 1.00 (1.00)" in listed[0]
        assert "(info)" in listed[0] and "REGRESSION" not in listed[0]

    def test_empty_overlap_fails_the_gate(self):
        ok, lines = compare_reports(
            {"host": HOST, "engines": {}}, report(), tolerance=0.2
        )
        assert not ok
        assert any("no comparable gated rows" in line for line in lines)

"""The per-layer table of one traced run.

Every value is read at a layer boundary from outside the program: a
span's self time or call count, a count carried by a simulated result,
the observer's aggregate of the observed pass, or a probe.  A layer the
workload does not touch reads 0 — that is the separation the workloads
were chosen for (``simulator.batch.*`` is 0 on ``fig3_ladder``).
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence

from repro.stats.metrics import nearest_rank_percentile

from benchmarks.ledger.metrics import PER_LAYER
from benchmarks.ledger.trace import (
    Span,
    SpanStats,
    aggregate,
    coverage,
    durations_of,
    layer_self_seconds,
)
from benchmarks.ledger.workloads import PassOutcome, Point

_NO_CALLS = SpanStats(0, 0.0, 0.0, 0, 0)
_PHASES = ("generation", "ejection", "routing", "transmission", "observe")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: Sequence[float], mark: float) -> float:
    """The program's own nearest-rank percentile (0 for no values)."""
    return nearest_rank_percentile(sorted(values), mark) if values else 0.0


def _network(points: Sequence[Point]) -> Dict[str, float]:
    flits = 0
    top_shares = []
    for point in points:
        usage = point.result.vc_class_usage
        total = sum(usage)
        flits += total
        if total:
            top_shares.append(max(usage) / total)
    return {
        "network.flits_moved": flits,
        "network.vc_max_share": (
            statistics.fmean(top_shares) if top_shares else 0.0
        ),
    }


def _observed(points: Optional[Sequence[Point]]) -> Dict[str, float]:
    """What ``repro.obs`` saw during the observed pass (zeros without one)."""
    blocked = carried = 0
    in_flight: List[float] = []
    queued: List[float] = []
    phase_s = dict.fromkeys(_PHASES, 0.0)
    phase_calls = dict.fromkeys(_PHASES, 0.0)
    for point in points or ():
        seen: Dict[str, Any] = point.result.obs_metrics or {}
        heat = seen.get("heatmap", {})
        blocked += heat.get("blocked_waits", 0)
        carried += heat.get("flits_carried", 0)
        series = seen.get("probes", {})
        if "in_flight_messages" in series:
            in_flight.append(series["in_flight_messages"]["mean"])
        if "route_queue_depth" in series:
            queued.append(series["route_queue_depth"]["mean"])
        for phase, entry in seen.get("profile", {}).items():
            phase_s[phase] += entry["seconds"]
            phase_calls[phase] += entry["calls"]
    values = {
        "network.blocked_waits": blocked,
        "network.blocked_share": _ratio(blocked, blocked + carried),
        "network.in_flight_mean": (
            statistics.fmean(in_flight) if in_flight else 0.0
        ),
        "network.route_queue_mean": (
            statistics.fmean(queued) if queued else 0.0
        ),
    }
    for phase in _PHASES:
        base = f"simulator.engine.phase.{phase}"
        values[f"{base}_s"] = phase_s[phase]
        values[f"{base}_calls"] = phase_calls[phase]
    return values


def layer_table(
    spans: Sequence[Span],
    counts: Dict[str, int],
    traced: PassOutcome,
    observed: Optional[PassOutcome],
    probes: Dict[str, float],
    exact_drift_points: int,
    ref_points_checked: int,
    wall_untraced_s: float,
    wall_traced_s: float,
    wall_observed_s: Optional[float],
    host_slowness: float,
) -> Dict[str, float]:
    """One value for every metric of ``metrics.PER_LAYER``.

    Span times are raw host seconds of the traced pass; the three walls
    are reference-speed seconds of whole passes, so the two overhead
    shares compare like with like.
    """
    stats = aggregate(spans)

    def of(name: str) -> SpanStats:
        return stats.get(name, _NO_CALLS)

    # The traced pass's own wall: its root spans less the clock's
    # calibration kernel, which is the ledger's time, not the program's.
    traced_raw_s = sum(
        span.duration for span in spans if span.parent < 0
    ) - of("ledger.calibrate").total_s
    points = traced.points
    object_points = [p for p in points if p.config.backend == "object"]
    batch_points = [p for p in points if p.config.backend == "batch"]

    def flits(some: Sequence[Point]) -> int:
        return sum(sum(p.result.vc_class_usage) for p in some)

    engine_run = of("simulator.engine.run_cycles")
    engine_steps = counts.get("simulator.engine.step", 0)
    batch_run = of("simulator.batch.run_cycles")
    batch_steps = counts.get("simulator.batch.step", 0)
    lane_cycles = sum(p.result.cycles_simulated for p in batch_points)
    run_point = of("experiments.runner.run_point")
    run_batch = of("experiments.runner.run_batch")
    unit_walls = durations_of(spans, "experiments.runner.run_point")
    unit_walls += durations_of(spans, "experiments.runner.run_batch")
    opened = of("campaigns.store.init")
    put = of("campaigns.store.put")
    get = of("campaigns.store.get")

    values: Dict[str, float] = {
        "topology.build_s": of("topology.init").self_s,
        "topology.builds": of("topology.init").calls,
        "routing.build_s": of("routing.make_algorithm").self_s,
        "routing.builds": of("routing.make_algorithm").calls,
        "traffic.build_s": layer_self_seconds(stats, "traffic"),
        "simulator.engine.construct_s": of("simulator.engine.init").self_s,
        "simulator.engine.constructs": of("simulator.engine.init").calls,
        "simulator.engine.run_s": engine_run.self_s,
        "simulator.engine.cycles": engine_run.work,
        "simulator.engine.us_per_cycle": _ratio(
            1e6 * engine_run.self_s, engine_run.work
        ),
        "simulator.engine.us_per_flit": _ratio(
            1e6 * engine_run.self_s, flits(object_points)
        ),
        # Cycles the idle fast-forward skipped instead of stepping.
        "simulator.engine.ff_cycle_share": (
            1.0 - _ratio(engine_steps, engine_run.work)
            if engine_run.work else 0.0
        ),
        "simulator.engine.deadlocks": run_point.errors,
        "simulator.engine.wall_share": _ratio(
            layer_self_seconds(stats, "simulator.engine"), traced_raw_s
        ),
        "simulator.batch.construct_s": of("simulator.batch.init").self_s,
        "simulator.batch.run_s": batch_run.self_s,
        "simulator.batch.lane_cycles": lane_cycles if batch_run.calls else 0,
        "simulator.batch.us_per_step": _ratio(
            1e6 * batch_run.self_s, batch_steps
        ),
        "simulator.batch.us_per_lane_cycle": _ratio(
            1e6 * batch_run.self_s, lane_cycles
        ),
        "simulator.batch.us_per_flit": _ratio(
            1e6 * batch_run.self_s, flits(batch_points)
        ),
        "simulator.batch.lane_failures": run_batch.errors,
        "simulator.batch.wall_share": _ratio(
            layer_self_seconds(stats, "simulator.batch"), traced_raw_s
        ),
        "stats.summarize_s": of("stats.summarize_components").self_s,
        "stats.convergence_s": of("stats.converged").self_s,
        "stats.samples_used": sum(p.result.samples_used for p in points),
        "stats.unconverged_points": sum(
            1 for p in points if not p.result.converged
        ),
        "experiments.runner.points": len(points),
        "experiments.runner.overhead_s": run_point.self_s + run_batch.self_s,
        "experiments.runner.point_wall_p50_s": _percentile(unit_walls, 50),
        "experiments.runner.point_wall_p80_s": _percentile(unit_walls, 80),
        "experiments.parallel.self_s": of(
            "experiments.parallel.run_points"
        ).self_s,
        "campaigns.spec.expand_s": of("campaigns.spec.expand").self_s,
        "campaigns.store.open_s": opened.self_s,
        "campaigns.store.open_records_per_s": _ratio(
            opened.work, opened.self_s
        ),
        "campaigns.store.put_us": _ratio(1e6 * put.self_s, put.calls),
        "campaigns.store.get_us": _ratio(1e6 * get.self_s, get.calls),
        "campaigns.store.bytes_per_record": traced.counts.get(
            "bytes_per_record", 0.0
        ),
        "campaigns.store.hit_share": _ratio(
            traced.counts.get("hits", 0.0), traced.counts.get("lookups", 0.0)
        ),
        "campaigns.orchestrator.self_s": of(
            "campaigns.orchestrator.run_campaign"
        ).self_s,
        "campaigns.export.collect_s": of("campaigns.export.collect").self_s,
        "campaigns.export.csv_s": of(
            "campaigns.export.write_campaign_csv"
        ).self_s,
        "campaigns.export.tables_s": of(
            "campaigns.export.format_campaign_tables"
        ).self_s,
        "campaigns.wall_share": _ratio(
            layer_self_seconds(stats, "campaigns"), traced_raw_s
        ),
        "obs.profile_overhead_share": (
            wall_observed_s / wall_untraced_s - 1.0
            if wall_observed_s is not None else 0.0
        ),
        "trace.overhead_share": wall_traced_s / wall_untraced_s - 1.0,
        "trace.spans": len(spans),
        "trace.coverage_share": coverage(spans),
        "ledger.exact_drift_points": exact_drift_points,
        "ledger.ref_points_checked": ref_points_checked,
        "ledger.host_slowness": host_slowness,
    }
    values.update(_network(points))
    values.update(_observed(observed.points if observed else None))
    values.update(probes)

    expected = {metric.name for metric in PER_LAYER}
    if set(values) != expected:
        raise AssertionError(
            "layer table and metrics.PER_LAYER disagree: "
            f"{sorted(set(values) ^ expected)}"
        )
    return {name: float(values[name]) for name in sorted(expected)}


__all__ = ["layer_table"]

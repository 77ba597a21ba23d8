"""Run one simulation point to convergence (paper Section 3 methodology).

The schedule: warm up, then alternate sampling periods and gaps.  Fresh
random streams are installed before each sample, statistics gathered during
samples are checked against the dual convergence criteria, and the run
stops at convergence or at the sample cap.
"""

from __future__ import annotations

import dataclasses
import re
from time import perf_counter
from typing import List, Optional, Sequence

from repro.simulator.batch import BatchEngine
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import Engine
from repro.stats.convergence import ConvergenceChecker
from repro.stats.counters import SampleRecord
from repro.stats.metrics import nearest_rank_percentile
from repro.stats.summary import SimulationResult
from repro.topology.base import Topology
from repro.traffic.base import TrafficPattern
from repro.traffic.load import max_offered_load


def run_point(
    config: SimulationConfig, engine: Optional[Engine] = None
) -> SimulationResult:
    """Simulate one configuration until converged (or the sample cap).

    A pre-built *engine* (one built with a custom algorithm, or the
    reference stepper) runs in place of ``Engine(config)``.
    """
    if engine is None:
        engine = Engine(config)
    checker = ConvergenceChecker(
        engine.traffic.hop_class_weights(),
        relative_error=config.relative_error,
        min_samples=config.min_samples,
    )

    observer = engine.observer
    samples: List[SampleRecord] = []
    converged = False
    t0 = perf_counter()
    try:
        # No counter reset after warm-up: VC usage is measured as
        # per-sample snapshot deltas (Engine.start_sample/end_sample), so
        # warm-up and gap-cycle traffic never leaks into the reported
        # statistics.
        engine.run_cycles(config.warmup_cycles)

        while True:
            engine.advance_streams()
            engine.start_sample()
            engine.run_cycles(config.sample_cycles)
            samples.append(engine.end_sample())
            if checker.converged(samples):
                converged = True
                break
            if len(samples) >= config.max_samples:
                converged = False
                break
            if config.gap_cycles:
                engine.run_cycles(config.gap_cycles)
        wall_seconds = round(perf_counter() - t0, 4)
    finally:
        # Export even when the run dies (the trace of a deadlocked run,
        # ending in its deadlock event, is the most valuable one).
        if observer is not None and observer.config.export_dir is not None:
            observer.export(prefix=obs_export_prefix(config))

    result = summarize(config, engine, samples, converged, checker)
    result.wall_seconds = wall_seconds
    if observer is not None:
        result.obs_metrics = observer.metrics_summary()
    return result


def obs_export_prefix(config: SimulationConfig) -> str:
    """Filesystem-safe artifact prefix for one simulation point."""
    return re.sub(r"[^A-Za-z0-9._^-]+", "_", config.label()).strip("_")


def run_batch(
    config: SimulationConfig, seeds: Sequence[int]
) -> List[SimulationResult]:
    """Simulate one configuration for many seeds in vectorized lockstep.

    Returns one :class:`SimulationResult` per seed, in seed order, each
    a function of (config, seed) alone — whichever other seeds share
    the batch (the composition tests pin this) — and statistically, not
    bitwise, equivalent to ``run_point`` on the object engine
    (``repro-check equivalence``).  Every lane follows the object
    runner's schedule — warm-up, then sampling periods with fresh
    streams and optional gaps — against its own convergence
    checker; a lane that converges (or hits the sample cap) is frozen
    while the rest continue, so mixed convergence horizons cost no
    redundant simulation.

    ``wall_seconds`` is the batch's total wall clock divided evenly
    across the lanes (lockstep execution has no per-lane clock).

    Raises :class:`~repro.util.errors.DeadlockError` if any lane's
    watchdog trips, like the object runner does for its single seed.
    """
    engine = BatchEngine(config, seeds)
    weights = engine.traffic.hop_class_weights()
    checkers = [
        ConvergenceChecker(
            weights,
            relative_error=config.relative_error,
            min_samples=config.min_samples,
        )
        for _ in seeds
    ]
    samples: List[List[SampleRecord]] = [[] for _ in seeds]
    converged: List[bool] = [False] * len(seeds)
    finished: List[bool] = [False] * len(seeds)

    def check_deadlock() -> None:
        errors = engine.lane_errors()
        if errors:
            raise errors[min(errors)]

    t0 = perf_counter()
    engine.run_cycles(config.warmup_cycles)
    check_deadlock()
    while engine.has_running_lanes:
        active = engine.running_lane_indices
        for index in active:
            engine.advance_streams(index)
            engine.start_sample(index)
        engine.run_cycles(config.sample_cycles)
        check_deadlock()
        still_running = set(engine.running_lane_indices)
        for index in active:
            if index not in still_running:
                continue  # deadlocked mid-sample (caught above)
            samples[index].append(engine.end_sample(index))
            if checkers[index].converged(samples[index]):
                converged[index] = True
                finished[index] = True
                engine.stop_lane(index)
            elif len(samples[index]) >= config.max_samples:
                finished[index] = True
                engine.stop_lane(index)
        if engine.has_running_lanes and config.gap_cycles:
            engine.run_cycles(config.gap_cycles)
            check_deadlock()
    wall_share = round((perf_counter() - t0) / max(len(seeds), 1), 4)

    results: List[SimulationResult] = []
    for index, seed in enumerate(seeds):
        assert finished[index], "lane ended without sampling to a verdict"
        result = summarize_components(
            dataclasses.replace(config, seed=seed),
            samples[index],
            converged[index],
            checkers[index],
            topology=engine.topology,
            algorithm_name=engine.algorithm.name,
            traffic=engine.traffic,
            injection_rate=engine.injection_rate,
            num_vc_classes=engine.algorithm.num_virtual_channels,
            cycles_simulated=engine.lanes[index].cycle,
        )
        result.wall_seconds = wall_share
        results.append(result)
    return results


def summarize(
    config: SimulationConfig,
    engine: Engine,
    samples: List[SampleRecord],
    converged: bool,
    checker: ConvergenceChecker,
) -> SimulationResult:
    """Fold the collected samples into a :class:`SimulationResult`."""
    return summarize_components(
        config,
        samples,
        converged,
        checker,
        topology=engine.topology,
        algorithm_name=engine.algorithm.name,
        traffic=engine.traffic,
        injection_rate=engine.injection_rate,
        num_vc_classes=engine.fabric.num_vcs,
        cycles_simulated=engine.cycle,
    )


def summarize_components(
    config: SimulationConfig,
    samples: List[SampleRecord],
    converged: bool,
    checker: ConvergenceChecker,
    *,
    topology: Topology,
    algorithm_name: str,
    traffic: TrafficPattern,
    injection_rate: float,
    num_vc_classes: int,
    cycles_simulated: int,
) -> SimulationResult:
    """Backend-independent core of :func:`summarize`.

    Takes the simulation components directly instead of an
    :class:`Engine`, so the batch backend (which holds one shared
    topology/algorithm/traffic for many lanes) can summarize each lane
    through the exact same statistics code as the object backend.
    """
    estimate = checker.estimate(samples)
    sample_cycles = sum(sample.cycles for sample in samples)
    flits_moved = sum(sample.flits_moved for sample in samples)
    generated = sum(sample.generated for sample in samples)
    refused = sum(sample.refused for sample in samples)
    num_links = topology.num_links
    message_length = config.message_length

    delivered = 0
    total_hops = 0
    total_wait = 0
    pooled_latencies = []
    for sample in samples:
        delivered += sample.delivered
        for latency, hops in sample.deliveries:
            total_hops += hops
            total_wait += latency - (message_length + hops - 1)
            pooled_latencies.append(latency)

    achieved = (
        flits_moved / (sample_cycles * num_links) if sample_cycles else 0.0
    )
    delivered_throughput = (
        total_hops * message_length / (sample_cycles * num_links)
        if sample_cycles
        else 0.0
    )

    percentiles: dict = {}
    if pooled_latencies:
        pooled_latencies.sort()
        for mark in (50, 95, 99):
            percentiles[mark] = nearest_rank_percentile(
                pooled_latencies, mark
            )

    # VC usage over the sampling windows only, so the load-balance
    # fractions share a denominator with flits_moved (gap-cycle flits
    # would otherwise inflate the per-class counts but not the
    # throughput they are compared against).
    vc_usage = [0] * num_vc_classes
    for sample in samples:
        for vc_class, count in enumerate(sample.vc_usage):
            vc_usage[vc_class] += count

    # The injection rate is a per-cycle probability capped at 1.0, so
    # requested loads past the sources' generation capacity are not
    # actually offered; label the point with the load that was.
    capacity = max_offered_load(
        topology, message_length, traffic.mean_distance()
    )
    actual_load = min(config.offered_load, capacity)
    notes = f"switching={config.switching}"
    if actual_load < config.offered_load:
        notes += (
            f"; offered_load clamped to {actual_load:.4f}"
            f" (requested {config.offered_load:g} exceeds the"
            f" 1 msg/node/cycle injection capacity)"
        )

    return SimulationResult(
        algorithm=algorithm_name,
        traffic=traffic.name,
        offered_load=config.offered_load,
        injection_rate=injection_rate,
        average_latency=estimate.mean,
        latency_error_bound=estimate.error_bound,
        average_wait=(total_wait / delivered) if delivered else 0.0,
        achieved_utilization=achieved,
        delivered_throughput=delivered_throughput,
        samples_used=len(samples),
        converged=converged,
        cycles_simulated=cycles_simulated,
        messages_generated=generated,
        messages_delivered=delivered,
        messages_refused=refused,
        latency_percentiles=percentiles,
        hop_class_latency=dict(estimate.stratum_means),
        vc_class_usage=vc_usage,
        offered_load_actual=actual_load,
        notes=notes,
    )


__all__ = [
    "obs_export_prefix",
    "run_batch",
    "run_point",
    "summarize",
    "summarize_components",
]

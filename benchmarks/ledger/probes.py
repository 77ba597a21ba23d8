"""Probes: sub-second micro-calls into single layers.

The traced run runs them after its passes.  They are for the layers a
workload's spans cannot isolate from outside (candidate generation sits
inside the engine's cycle; the dispatch floor inside the batch step) and
for two costs no workload pays at all (the verify battery, the process
pool).  Inputs derive from the run's seed; the network is fixed (8x8
torus, or 4x4 with ``--smoke``), so a probe reads the same on every
workload.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Dict

import numpy as np

from repro.analysis.verify.runner import run_verification
from repro.experiments.parallel import run_points
from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.routing.tables import RouteTable
from repro.simulator.batch import BatchEngine
from repro.simulator.config import SimulationConfig
from repro.topology.torus import Torus
from repro.traffic.arrivals import geometric_gaps
from repro.traffic.base import sample_destinations
from repro.traffic.registry import make_traffic


def _routing(radix: int) -> Dict[str, float]:
    """First-hop candidates of every (src, dst) pair, all algorithms:
    computed, then served from the candidate memo; then the same pairs
    interned as RouteTable rows."""
    topology = Torus(radix, 2)
    nodes = range(topology.num_nodes)
    pairs = [(s, d) for s in nodes for d in nodes if s != d]
    fresh_s = cached_s = intern_s = 0.0
    rows = 0
    for name in ALGORITHM_NAMES:
        algorithm = make_algorithm(name, topology)
        states = [algorithm.new_state(s, d) for s, d in pairs]
        start = perf_counter()
        for (s, d), state in zip(pairs, states):
            algorithm.candidates(state, s, d)
        fresh_s += perf_counter() - start
        for (s, d), state in zip(pairs, states):
            algorithm.candidates_cached(state, s, d)
        start = perf_counter()
        for (s, d), state in zip(pairs, states):
            algorithm.candidates_cached(state, s, d)
        cached_s += perf_counter() - start
        table = RouteTable(make_algorithm(name, topology))
        start = perf_counter()
        for (s, d), state in zip(pairs, states):
            table.row_for(s, d, state)
        intern_s += perf_counter() - start
        rows += table.size
    calls = len(pairs) * len(ALGORITHM_NAMES)
    return {
        "routing.candidates_per_s": calls / fresh_s,
        "routing.cached_candidates_per_s": calls / cached_s,
        "routing.tables.intern_s": intern_s,
        "routing.tables.rows": rows,
    }


def _traffic(radix: int, seed: int) -> Dict[str, float]:
    """Batched destination and interarrival draws, the relaxed batch
    path's two per-cycle uses of the traffic layer."""
    topology = Torus(radix, 2)
    table = make_traffic("uniform", topology).destination_table()
    gen = np.random.default_rng(seed)
    sources = gen.integers(0, topology.num_nodes, size=64)
    rounds = 2000
    start = perf_counter()
    for _ in range(rounds):
        sample_destinations(table, sources, gen)
    dest_s = perf_counter() - start
    start = perf_counter()
    for _ in range(rounds):
        geometric_gaps(64, 0.01, gen)
    gap_s = perf_counter() - start
    return {
        "traffic.dest_draws_per_s": rounds * 64 / dest_s,
        "traffic.gap_draws_per_s": rounds * 64 / gap_s,
    }


def _dispatch_floor(radix: int, seed: int) -> Dict[str, float]:
    """Cost of one relaxed batch step with next to nothing in flight:
    one lane at load 0.02, per step actually taken."""
    config = SimulationConfig(
        radix=radix, algorithm="nbc", offered_load=0.02,
        backend="batch", identity="relaxed", flow_control="conservative",
        seed=seed,
    )
    engine = BatchEngine(config, [seed])
    steps = 0
    inner = engine.step

    def counted() -> None:
        nonlocal steps
        steps += 1
        inner()

    engine.step = counted  # type: ignore[method-assign]
    start = perf_counter()
    engine.run_cycles(2000)
    elapsed = perf_counter() - start
    return {
        "simulator.batch.dispatch_floor_us": 1e6 * elapsed / max(steps, 1)
    }


def _verify(radix: int) -> Dict[str, float]:
    run = run_verification([f"torus:{radix}x{radix}", f"mesh:{radix}x{radix}"])
    failed = sum(
        1 for result in run.results if result.status in ("fail", "error")
    )
    return {
        "analysis.verify.battery_s": run.wall_time,
        "analysis.verify.checks": len(run.results),
        "analysis.verify.failed": failed,
    }


def _pool(seed: int) -> Dict[str, float]:
    """The same tiny points with one worker and with two.  Informational
    (process start-up dominates; the spread is about 15%)."""
    base = SimulationConfig(
        radix=4, warmup_cycles=200, sample_cycles=150, gap_cycles=30,
        min_samples=3, max_samples=3, seed=seed,
    )
    configs = [
        dataclasses.replace(base, algorithm=name, offered_load=load)
        for name in ALGORITHM_NAMES
        for load in (0.3, 0.6)
    ]
    start = perf_counter()
    serial = run_points(configs, jobs=1)
    serial_s = perf_counter() - start
    start = perf_counter()
    pooled = run_points(configs, jobs=2)
    pooled_s = perf_counter() - start
    if serial != pooled:
        raise AssertionError("jobs=2 changed simulated results")
    return {"experiments.parallel.pool2_speedup": serial_s / pooled_s}


def run_probes(seed: int, smoke: bool) -> Dict[str, float]:
    """Every probe metric of ``metrics.PER_LAYER``."""
    radix = 4 if smoke else 8
    values: Dict[str, float] = {}
    values.update(_routing(radix))
    values.update(_traffic(radix, seed))
    values.update(_dispatch_floor(radix, seed))
    values.update(_verify(4))
    values.update(_pool(seed))
    return values


__all__ = ["run_probes"]

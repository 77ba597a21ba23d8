"""Statistical equivalence of the batch backend to the object engine.

The batch backend (:mod:`repro.simulator.batch`, ``identity="relaxed"``)
draws from per-lane numpy generators and routes through table-driven
kernels.  Individual runs are *not* bit-identical to the object
engine's (``identity="strict"``) — the draw order differs — so it is
validated distributionally: over many seeds, every reported metric must
agree between the two engines up to sampling noise.  The reference side
runs one object engine per seed, spread over this host's cores.

The dual criterion (mirroring the convergence checker's spirit): a
metric is discrepant only when the two means differ *practically* AND
*statistically* —

``|mean_r - mean_s|  >  rel_tol * max(|mean_s|, floor)``   (practical)
``|mean_r - mean_s|  >  z * sqrt(var_s/n + var_r/n)``      (statistical)

A difference within ``rel_tol`` is immaterial regardless of confidence;
a difference within ``z`` standard errors (Welch) is indistinguishable
from seed noise regardless of size.  Equivalence fails only when both
thresholds are exceeded, so the check neither flags converged-but-tiny
offsets nor rewards noisy small-n runs.

Compared metrics per point: mean latency, mean wait, achieved
utilization, delivered throughput, delivered-message count, and the
per-VC-class usage shares (the paper's load-balance quantity).  Both
engines run the exact same seeds and the exact same sampling schedule
(``min_samples == max_samples``), so the paired distributions differ
only by the engine.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.experiments.parallel import run_points
from repro.experiments.runner import run_batch
from repro.simulator.config import SimulationConfig
from repro.stats.summary import SimulationResult
from repro.util.errors import ConfigurationError

#: Algorithms x topologies covered by the full suite: every shipped
#: adaptive scheme plus e-cube, on both paper topologies.
SUITE_ALGORITHMS = ("ecube", "2pn", "nbc", "nhop", "nlast", "phop")
SUITE_TOPOLOGIES = ("mesh", "torus")

#: Absolute floor for the practical-tolerance term, so near-zero means
#: (e.g. a VC class carrying ~no flits) do not demand impossible
#: relative precision.
_REL_FLOOR = 1e-9


@dataclasses.dataclass(frozen=True)
class MetricComparison:
    """One metric's object (strict) vs batch (relaxed) verdict."""

    name: str
    mean_strict: float
    mean_relaxed: float
    #: Welch standard error of the mean difference, sqrt(vs/n + vr/n).
    std_error: float
    rel_diff: float
    passed: bool

    def describe(self) -> str:
        mark = "ok " if self.passed else "FAIL"
        return (
            f"[{mark}] {self.name}: strict={self.mean_strict:.6g} "
            f"relaxed={self.mean_relaxed:.6g} "
            f"rel_diff={self.rel_diff:.3%} se={self.std_error:.3g}"
        )


@dataclasses.dataclass(frozen=True)
class PointReport:
    """Equivalence verdicts for one (algorithm, topology) point."""

    algorithm: str
    topology: str
    offered_load: float
    num_seeds: int
    metrics: List[MetricComparison]

    @property
    def passed(self) -> bool:
        return all(metric.passed for metric in self.metrics)

    @property
    def failures(self) -> List[MetricComparison]:
        return [metric for metric in self.metrics if not metric.passed]


def _mean_var(values: Sequence[float]) -> tuple:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((value - mean) ** 2 for value in values) / (n - 1)
    return mean, var


def compare_metric(
    name: str,
    strict: Sequence[float],
    relaxed: Sequence[float],
    rel_tol: float,
    z: float,
    floor: float = _REL_FLOOR,
) -> MetricComparison:
    """Apply the dual criterion to one metric's per-seed samples."""
    mean_s, var_s = _mean_var(strict)
    mean_r, var_r = _mean_var(relaxed)
    diff = abs(mean_r - mean_s)
    se = math.sqrt(var_s / len(strict) + var_r / len(relaxed))
    practical = diff > rel_tol * max(abs(mean_s), floor)
    statistical = diff > z * se
    scale = max(abs(mean_s), floor)
    return MetricComparison(
        name=name,
        mean_strict=mean_s,
        mean_relaxed=mean_r,
        std_error=se,
        rel_diff=diff / scale,
        passed=not (practical and statistical),
    )


def _point_metrics(
    results: Sequence[SimulationResult],
) -> Dict[str, List[float]]:
    """Per-seed metric samples from one engine's results."""
    metrics: Dict[str, List[float]] = {
        "average_latency": [],
        "average_wait": [],
        "achieved_utilization": [],
        "delivered_throughput": [],
        "messages_delivered": [],
    }
    num_classes = max(
        (len(result.vc_class_usage) for result in results), default=0
    )
    for vc in range(num_classes):
        metrics[f"vc_share_{vc}"] = []
    for result in results:
        metrics["average_latency"].append(result.average_latency)
        metrics["average_wait"].append(result.average_wait)
        metrics["achieved_utilization"].append(
            result.achieved_utilization
        )
        metrics["delivered_throughput"].append(
            result.delivered_throughput
        )
        metrics["messages_delivered"].append(
            float(result.messages_delivered)
        )
        usage = result.vc_class_usage
        total = float(sum(usage)) or 1.0
        for vc in range(num_classes):
            share = usage[vc] / total if vc < len(usage) else 0.0
            metrics[f"vc_share_{vc}"].append(share)
    return metrics


def compare_point(
    config: SimulationConfig,
    seeds: Sequence[int],
    rel_tol: float = 0.05,
    z: float = 3.0,
) -> PointReport:
    """Run one configuration on both engines and compare.

    *config*'s ``backend``/``identity`` are overridden per side.  Both
    run the same seeds on a fixed sampling schedule: the batch side in
    one lockstep engine, the reference side as one object engine per
    seed on as many worker processes as the host has cores.
    """
    strict_cfg = replace(config, backend="object", identity="strict")
    relaxed_cfg = replace(config, backend="batch", identity="relaxed")
    strict_results = run_points(
        [replace(strict_cfg, seed=seed) for seed in seeds],
        jobs=os.cpu_count() or 1,
    )
    relaxed_results = run_batch(relaxed_cfg, seeds)
    strict_metrics = _point_metrics(strict_results)
    relaxed_metrics = _point_metrics(relaxed_results)
    names = sorted(set(strict_metrics) | set(relaxed_metrics))
    comparisons = [
        compare_metric(
            name,
            strict_metrics.get(name, [0.0] * len(seeds)),
            relaxed_metrics.get(name, [0.0] * len(seeds)),
            rel_tol,
            z,
        )
        for name in names
    ]
    return PointReport(
        algorithm=config.algorithm,
        topology=config.topology,
        offered_load=config.offered_load,
        num_seeds=len(seeds),
        metrics=comparisons,
    )


def run_suite(
    algorithms: Iterable[str] = SUITE_ALGORITHMS,
    topologies: Iterable[str] = SUITE_TOPOLOGIES,
    num_seeds: int = 30,
    radix: int = 8,
    offered_load: float = 0.4,
    message_length: int = 16,
    samples: int = 3,
    warmup_cycles: int = 1000,
    sample_cycles: int = 1000,
    rel_tol: float = 0.05,
    z: float = 3.0,
    progress: Optional[Any] = None,
) -> List[PointReport]:
    """Equivalence over the full algorithm x topology grid.

    Conservative flow control throughout (the only node model the
    batch backend evaluates).  The sampling schedule is pinned
    (``min_samples == max_samples``) so both engines simulate identical
    cycle counts.  At least two seeds, since one has no variance and
    leaves only the practical arm of the criterion; an empty algorithm or
    topology selection, a negative *rel_tol* or *z* are errors too.
    """
    algorithms, topologies = tuple(algorithms), tuple(topologies)
    if not algorithms or not topologies:
        raise ConfigurationError(
            "equivalence needs at least one algorithm and one topology"
        )
    if num_seeds < 2 or not (rel_tol >= 0 and z >= 0):
        raise ConfigurationError(
            f"equivalence needs num_seeds >= 2, rel_tol >= 0 and z >= 0, "
            f"got {num_seeds}, {rel_tol} and {z}"
        )
    seeds = list(range(101, 101 + num_seeds))
    reports: List[PointReport] = []
    for topology in topologies:
        for algorithm in algorithms:
            config = SimulationConfig(
                radix=radix,
                n_dims=2,
                topology=topology,
                algorithm=algorithm,
                flow_control="conservative",
                offered_load=offered_load,
                message_length=message_length,
                warmup_cycles=warmup_cycles,
                sample_cycles=sample_cycles,
                gap_cycles=0,
                min_samples=samples,
                max_samples=samples,
            )
            report = compare_point(config, seeds, rel_tol=rel_tol, z=z)
            reports.append(report)
            if progress is not None:
                status = "ok" if report.passed else "FAIL"
                progress(
                    f"{topology}/{algorithm}: {status} "
                    f"({len(report.failures)} discrepant metrics)"
                )
    return reports


__all__ = [
    "MetricComparison",
    "PointReport",
    "SUITE_ALGORITHMS",
    "SUITE_TOPOLOGIES",
    "compare_metric",
    "compare_point",
    "run_suite",
]

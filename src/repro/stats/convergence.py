"""Stratified estimation and the paper's dual convergence criteria.

The paper (Section 3) partitions delivered messages into hop-class strata
and estimates mean latency as a stratified population mean with *a priori*
weights (the exact probability a generated message belongs to each
hop-class, from the traffic pattern's destination distribution — see
Scheaffer et al., "Elementary Survey Sampling").  Two error bounds are
computed, both at 2 standard errors (~95%):

* the stratified estimator's own bound across strata, and
* the bound from the variance of the per-sample mean latencies of the
  three most recent samples.

A run converges when **both** bounds fall within 5% of their respective
means; the minimum of three and the maximum of 10-15 samples, as well as
the 5%, are configurable.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.stats.counters import SampleRecord


class StratifiedEstimate:
    """A stratified mean-latency estimate with its 95% error bound."""

    __slots__ = ("mean", "error_bound", "stratum_means", "stratum_counts")

    def __init__(
        self,
        mean: float,
        error_bound: float,
        stratum_means: Dict[int, float],
        stratum_counts: Dict[int, int],
    ) -> None:
        self.mean = mean
        self.error_bound = error_bound
        self.stratum_means = stratum_means
        self.stratum_counts = stratum_counts

    @property
    def relative_error(self) -> float:
        """Error bound as a fraction of the mean (inf for a zero mean)."""
        if self.mean <= 0:
            return math.inf
        return self.error_bound / self.mean

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StratifiedEstimate(mean={self.mean:.2f}, "
            f"bound={self.error_bound:.2f})"
        )


def stratified_latency(
    deliveries: Sequence[Tuple[int, int]],
    weights: Dict[int, float],
) -> StratifiedEstimate:
    """Stratified mean latency from pooled (latency, hops) records.

    *weights* maps hop-class -> a-priori probability.  Strata with no
    observations are dropped and the remaining weights renormalized (they
    carry negligible probability in any converged run).  Strata observed
    fewer than twice contribute zero variance.
    """
    sums: Dict[int, float] = {}
    squares: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for latency, hops in deliveries:
        sums[hops] = sums.get(hops, 0.0) + latency
        squares[hops] = squares.get(hops, 0.0) + latency * latency
        counts[hops] = counts.get(hops, 0) + 1
    observed = [hops for hops in weights if counts.get(hops, 0) > 0]
    if not observed:
        return StratifiedEstimate(0.0, math.inf, {}, {})
    total_weight = sum(weights[hops] for hops in observed)
    mean = 0.0
    variance = 0.0
    stratum_means: Dict[int, float] = {}
    for hops in observed:
        n = counts[hops]
        stratum_mean = sums[hops] / n
        stratum_means[hops] = stratum_mean
        weight = weights[hops] / total_weight
        mean += weight * stratum_mean
        if n > 1:
            stratum_var = (squares[hops] - n * stratum_mean**2) / (n - 1)
            stratum_var = max(stratum_var, 0.0)
            variance += weight * weight * stratum_var / n
    return StratifiedEstimate(
        mean, 2.0 * math.sqrt(variance), stratum_means, counts
    )


def sample_means_bound(samples: Sequence[SampleRecord]) -> Tuple[float, float]:
    """(mean of sample means, 2-standard-error bound) over the samples."""
    means = [s.mean_latency() for s in samples if s.delivered > 0]
    if len(means) < 2:
        return (means[0] if means else 0.0), math.inf
    grand = sum(means) / len(means)
    var = sum((m - grand) ** 2 for m in means) / (len(means) - 1)
    return grand, 2.0 * math.sqrt(var / len(means))


class ConvergenceChecker:
    """Applies both of the paper's criteria to the samples gathered so far."""

    def __init__(
        self,
        weights: Dict[int, float],
        relative_error: float = 0.05,
        min_samples: int = 3,
    ) -> None:
        self.weights = weights
        self.relative_error = relative_error
        self.min_samples = min_samples

    def estimate(
        self, samples: Sequence[SampleRecord]
    ) -> StratifiedEstimate:
        pooled: List[Tuple[int, int]] = []
        for sample in samples:
            pooled.extend(sample.deliveries)
        return stratified_latency(pooled, self.weights)

    def converged(self, samples: Sequence[SampleRecord]) -> bool:
        """True when both error bounds are within the tolerance."""
        if len(samples) < self.min_samples:
            return False
        estimate = self.estimate(samples)
        if estimate.relative_error > self.relative_error:
            return False
        # Criterion 2 reads the three most recent samples.
        grand, bound = sample_means_bound(samples[-3:])
        if grand <= 0:
            return False
        return bound / grand <= self.relative_error


__all__ = [
    "ConvergenceChecker",
    "StratifiedEstimate",
    "sample_means_bound",
    "stratified_latency",
]

"""The traffic-pattern interface.

A pattern answers two questions:

* sampling — "a message was just generated at node *s*; where is it going?"
* analysis — "what is the exact destination distribution from node *s*?"

The second supports the paper's stratified statistics: the hop-class
weights used by the convergence estimator (Section 3, footnote 3) are the
exact probabilities that a generated message needs h hops, derived here
from the destination distribution rather than estimated from samples.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Optional, Sequence

import numpy as np

from repro.topology.base import Topology


class TrafficPattern(ABC):
    """Destination selection for newly generated messages."""

    #: Short identifier used by the registry and result tables.
    name: str = "abstract"

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._hop_class_weights: Optional[Dict[int, float]] = None
        self._mean_distance: Optional[float] = None
        self._destination_table: Optional[np.ndarray] = None

    @abstractmethod
    def sample_destination(
        self, src: int, rng: random.Random
    ) -> Optional[int]:
        """Draw a destination for a message generated at *src*.

        Returns None when the pattern generates no message from *src*
        (e.g. a permutation pattern mapping *src* to itself).
        """

    @abstractmethod
    def destination_distribution(self, src: int) -> Dict[int, float]:
        """Exact destination probabilities for messages from *src*.

        Probabilities sum to 1 over destinations != src (self-addressed
        messages are never generated).  An empty dict means *src* never
        generates messages.
        """

    # -- derived analytics -----------------------------------------------------

    def hop_class_weights(self) -> Dict[int, float]:
        """P(message needs h hops), averaged over source nodes.

        These are the stratum weights of the paper's population-mean
        convergence estimator: e.g. 0.0157 for hop-class 1 and 0.0039 for
        hop-class 16 under uniform traffic on a 16x16 torus, and
        0.0833/0.1667/0.25 for classes {1,6}/{2,5}/{3,4} under local
        traffic.
        """
        if self._hop_class_weights is None:
            topo = self.topology
            weights: Dict[int, float] = {}
            active_sources = 0
            for src in range(topo.num_nodes):
                dist = self.destination_distribution(src)
                if not dist:
                    continue
                active_sources += 1
                # Summed in (src, dict-order dst) sequence: the float
                # sums and the first-occurrence key order both feed
                # mean_distance, hence the arrival rate.
                row = topo.distance_row(src)
                for dst, prob in dist.items():
                    hops = row[dst]
                    weights[hops] = weights.get(hops, 0.0) + prob
            if active_sources:
                for hops in weights:
                    weights[hops] /= active_sources
            self._hop_class_weights = weights
        return dict(self._hop_class_weights)

    def mean_distance(self) -> float:
        """Expected hops of a generated message (the paper's d-bar)."""
        if self._mean_distance is None:
            weights = self.hop_class_weights()
            self._mean_distance = sum(
                hops * weight for hops, weight in weights.items()
            )
        return self._mean_distance

    # -- batched sampling ------------------------------------------------------

    def destination_table(self) -> np.ndarray:
        """Per-source cumulative destination distribution, [N, N] float64.

        Row *s* holds ``P(dst <= d | generated at s)`` over destination
        index *d*, built once from :meth:`destination_distribution` (so
        it is exact for every pattern, including renormalized ones like
        hotspot).  A source that never generates has an all-zero row —
        :func:`sample_destinations` maps it to the sentinel ``-1``, the
        batched counterpart of :meth:`sample_destination` returning
        ``None``.  Cached per pattern instance.
        """
        if self._destination_table is None:
            n = self.topology.num_nodes
            probs = np.zeros((n, n), dtype=np.float64)
            for src in range(n):
                row = probs[src]  # a view: 1-D sets, not [src, dst] pairs
                for dst, prob in self.destination_distribution(src).items():
                    row[dst] = prob
            cum = np.cumsum(probs, axis=1)
            # Normalize away cumsum float drift: every active row must
            # end at exactly 1.0, or a uniform drawn in [cum[-1], 1)
            # would fall past the table and silently drop a message.
            active = cum[:, -1] > 0.0
            cum[active] /= cum[active, -1][:, None]
            self._destination_table = cum
        return self._destination_table

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.topology!r})"


def sample_destinations(
    table: np.ndarray, srcs: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """Batched destination draw for the sources *srcs*.

    *table* is a :meth:`TrafficPattern.destination_table`; one uniform
    per source indexes its cumulative row (``dst`` is the smallest index
    whose cumulative probability exceeds the draw).  Sources whose row
    carries no probability mass (never generate) yield ``-1``.  The
    per-(src, dst) probabilities match the scalar
    :meth:`~TrafficPattern.sample_destination` exactly; only the stream
    of uniforms differs (relaxed identity).
    """
    return destinations_from_uniforms(table, srcs, gen.random(srcs.shape[0]))


def destinations_from_uniforms(
    table: np.ndarray, srcs: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """:func:`sample_destinations` over caller-supplied uniforms *u*.

    Split out so the batch engine can serve the uniforms from a
    per-lane prefetch buffer without changing the draw-to-destination
    mapping.
    """
    rows = table[srcs]
    drawn = (u[:, None] >= rows).sum(axis=1)
    return np.where(drawn < table.shape[1], drawn, -1)


class UniformOverSetPattern(TrafficPattern):
    """Helper base: destinations drawn uniformly from a per-source set."""

    def candidate_destinations(self, src: int) -> Sequence[int]:
        """The (non-empty) set of allowed destinations for *src*."""
        raise NotImplementedError

    def sample_destination(
        self, src: int, rng: random.Random
    ) -> Optional[int]:
        candidates = self.candidate_destinations(src)
        if not candidates:
            return None
        return candidates[rng.randrange(len(candidates))]

    def destination_distribution(self, src: int) -> Dict[int, float]:
        candidates = self.candidate_destinations(src)
        if not candidates:
            return {}
        prob = 1.0 / len(candidates)
        return {dst: prob for dst in candidates}


__all__ = [
    "TrafficPattern",
    "UniformOverSetPattern",
    "destinations_from_uniforms",
    "sample_destinations",
]

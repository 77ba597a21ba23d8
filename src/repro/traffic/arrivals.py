"""Message arrival processes.

The paper uses geometrically distributed interarrival times: in discrete
time that is a Bernoulli generation trial per node per cycle with success
probability equal to the per-node injection rate.  For efficiency the
process is simulated gap-wise — one geometric draw per message instead of
one uniform draw per node per cycle — which is statistically identical.
Pending arrivals live in a min-heap keyed by due cycle.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import List, Tuple

import numpy as np

from repro.util.validation import require_probability

#: Sentinel gap for a zero-rate process (effectively "never").
_NEVER = 1 << 60


class GeometricArrivals:
    """Per-node geometric interarrival schedule.

    ``rate`` is the probability a node generates a message in any given
    cycle (messages per node per cycle).
    """

    __slots__ = ("num_nodes", "rate", "next_due", "_heap", "_started")

    def __init__(self, num_nodes: int, rate: float) -> None:
        require_probability(rate, "rate")
        self.num_nodes = num_nodes
        self.rate = rate
        #: Cycle of the earliest pending arrival — a cheap peek the engine
        #: reads every cycle (and the idle fast-forward jumps to) without
        #: touching the heap.
        self.next_due = _NEVER
        self._heap: List[Tuple[int, int]] = []  # (due_cycle, node)
        self._started = False

    def start(self, now: int, rng: random.Random) -> None:
        """Schedule every node's first arrival at or after cycle *now*."""
        self._started = True
        self._heap = [
            (now + self._gap(rng) - 1, node)
            for node in range(self.num_nodes)
        ]
        heapq.heapify(self._heap)
        self.next_due = self._heap[0][0] if self._heap else _NEVER

    def _gap(self, rng: random.Random) -> int:
        """One geometric interarrival gap (support 1, 2, 3, ...)."""
        if self.rate >= 1.0:
            return 1
        if self.rate <= 0.0:
            return _NEVER
        u = rng.random()
        # Inverse-CDF of the geometric distribution on {1, 2, ...}.
        return int(math.log(1.0 - u) / math.log(1.0 - self.rate)) + 1

    def pop_due(self, now: int, rng: random.Random) -> List[int]:
        """Nodes generating a message at cycle *now*; reschedules each.

        A node can appear multiple times if its gaps are shorter than the
        polling interval (only possible at extreme rates).
        """
        assert self._started, "call start() before polling arrivals"
        due: List[int] = []
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, node = heapq.heappop(heap)
            due.append(node)
            heapq.heappush(heap, (now + self._gap(rng), node))
        self.next_due = heap[0][0] if heap else _NEVER
        return due

    def reseed(self, now: int, rng: random.Random) -> None:
        """Re-draw all pending gaps from a fresh stream.

        Called between sampling periods when the paper's methodology
        replaces the random-number streams.
        """
        self._heap = [
            (now + self._gap(rng), node) for _, node in self._heap
        ]
        heapq.heapify(self._heap)
        self.next_due = self._heap[0][0] if self._heap else _NEVER


def geometric_gaps(
    count: int, rate: float, gen: "np.random.Generator"
) -> np.ndarray:
    """*count* geometric interarrival gaps (support 1, 2, 3, ...).

    The batched inverse-CDF transform — the same per-draw math as
    :meth:`GeometricArrivals._gap`, over a numpy Generator: what the
    batch engine's arrival stack (:class:`repro.simulator.soa.StreamStack`)
    refills each lane's row with.  The degenerate rates touch no stream.
    """
    if rate >= 1.0:
        return np.ones(count, dtype=np.int64)
    if rate <= 0.0:
        return np.full(count, _NEVER, dtype=np.int64)
    u = gen.random(count)
    gaps = np.log1p(-u) / math.log(1.0 - rate)
    return gaps.astype(np.int64) + 1


__all__ = [
    "GeometricArrivals",
    "geometric_gaps",
]

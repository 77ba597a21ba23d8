"""Raw per-sample measurements collected by the engine."""

from __future__ import annotations

from typing import List, Tuple


class SampleRecord:
    """Everything measured during one sampling period.

    ``deliveries`` holds one ``(latency, hops)`` pair per message delivered
    while the sample was active; hops is the message's (minimal) path
    length and doubles as its hop-class/stratum id.

    ``vc_usage`` is the flits carried per virtual-channel class during
    this sample only — the same window ``flits_moved`` counts, so the
    two share a denominator (gap-cycle traffic is excluded from both).
    """

    __slots__ = (
        "start_cycle",
        "cycles",
        "deliveries",
        "flits_moved",
        "generated",
        "refused",
        "vc_usage",
    )

    def __init__(self, start_cycle: int) -> None:
        self.start_cycle = start_cycle
        self.cycles = 0
        self.deliveries: List[Tuple[int, int]] = []
        self.flits_moved = 0
        self.generated = 0
        self.refused = 0
        self.vc_usage: List[int] = []

    @property
    def delivered(self) -> int:
        return len(self.deliveries)

    def extend_deliveries(
        self, latencies: List[int], hops: List[int]
    ) -> None:
        """Append one batch of (latency, hops) pairs in delivery order.

        Batched entry point for engines that buffer per-cycle delivery
        stats as array chunks instead of appending scalar pairs.
        """
        self.deliveries.extend(zip(latencies, hops))

    def mean_latency(self) -> float:
        """Unweighted mean latency of this sample (0 if empty)."""
        if not self.deliveries:
            return 0.0
        return sum(lat for lat, _ in self.deliveries) / len(self.deliveries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SampleRecord(start={self.start_cycle}, cycles={self.cycles}, "
            f"delivered={self.delivered}, flits={self.flits_moved})"
        )


__all__ = ["SampleRecord"]

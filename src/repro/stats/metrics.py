"""Latency and throughput metrics (paper eqs. (2)-(4)).

Latency of one message: ``w + (m_l + d - 1) * f_t`` with wait time w,
message length m_l flits, d hops and flit time f_t = 1 cycle — the
simulator measures it directly as delivery cycle minus creation cycle.

Normalized throughput (average channel utilization) is the fraction of raw
network channel bandwidth carrying flits.  The simulator counts actual flit
crossings, which equals the paper's eq. (3) in steady state.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.util.validation import require_positive


def ideal_latency(message_length: int, hops: int) -> int:
    """Contention-free latency of a message (paper eq. (2) with w = 0,
    f_t = 1)."""
    require_positive(message_length, "message_length")
    require_positive(hops, "hops")
    return message_length + hops - 1


def achieved_utilization(
    flits_moved: int, cycles: int, num_channels: int
) -> float:
    """Measured channel utilization: flit crossings / channel-cycles."""
    require_positive(cycles, "cycles")
    require_positive(num_channels, "num_channels")
    return flits_moved / (cycles * num_channels)


def normalized_throughput(
    messages_delivered: int,
    total_hops: int,
    message_length: int,
    cycles: int,
    num_channels: int,
) -> float:
    """Paper eq. (3) with measured quantities.

    ``total_hops`` is the sum of hop counts over the delivered messages, so
    ``total_hops * message_length`` is the channel-bandwidth those messages
    consumed.
    """
    require_positive(cycles, "cycles")
    require_positive(num_channels, "num_channels")
    if messages_delivered == 0:
        return 0.0
    return total_hops * message_length / (cycles * num_channels)


def nearest_rank_percentile(
    sorted_values: Sequence[float], mark: float
) -> float:
    """The *mark*-th percentile of *sorted_values* by the nearest-rank rule.

    Nearest-rank: the smallest value such that at least ``mark`` percent
    of the sample is <= it, i.e. index ``ceil(mark/100 * n) - 1`` of the
    ascending-sorted sample.  (The earlier ``(n-1) * mark // 100``
    indexing was biased low for small samples: with n = 4 it returned
    the 3rd value as the 95th percentile instead of the maximum.)
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0 < mark <= 100:
        raise ValueError(f"percentile mark must be in (0, 100], got {mark}")
    n = len(sorted_values)
    index = math.ceil(mark / 100.0 * n) - 1
    if index < 0:
        index = 0
    return float(sorted_values[index])


__all__ = [
    "achieved_utilization",
    "ideal_latency",
    "nearest_rank_percentile",
    "normalized_throughput",
]

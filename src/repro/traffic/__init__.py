"""Traffic patterns, arrival processes, and offered-load accounting.

The paper evaluates uniform, hotspot, and local patterns (Section 3); the
permutation patterns (matrix transpose, bit-complement, bit-reversal) are
included because the paper cites Glass & Ni's claim that turn-model
algorithms win on such non-uniform patterns — an extension experiment.
"""

from repro.traffic.arrivals import GeometricArrivals
from repro.traffic.base import TrafficPattern
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.load import (
    offered_load_to_rate,
    rate_to_offered_load,
)
from repro.traffic.local import LocalTraffic
from repro.traffic.permutations import (
    BitComplementTraffic,
    BitReversalTraffic,
    TransposeTraffic,
)
from repro.traffic.registry import available_patterns, make_traffic
from repro.traffic.uniform import UniformTraffic

__all__ = [
    "BitComplementTraffic",
    "BitReversalTraffic",
    "GeometricArrivals",
    "HotspotTraffic",
    "LocalTraffic",
    "TrafficPattern",
    "TransposeTraffic",
    "UniformTraffic",
    "available_patterns",
    "make_traffic",
    "offered_load_to_rate",
    "rate_to_offered_load",
]

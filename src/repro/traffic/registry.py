"""Name-based construction of traffic patterns."""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, List, Mapping

from repro.topology.base import Topology
from repro.traffic.base import TrafficPattern
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.local import LocalTraffic
from repro.traffic.permutations import (
    BitComplementTraffic,
    BitReversalTraffic,
    TransposeTraffic,
)
from repro.traffic.uniform import UniformTraffic
from repro.util.errors import ConfigurationError

# Immutable: the pattern set is closed at import time, so parent and
# ProcessPool workers always agree on it (module state in traffic/ that
# changes per draw fails test_campaign_identity.py::TestGoldenPins).
_FACTORIES: Mapping[str, Callable[..., TrafficPattern]] = MappingProxyType(
    {
        UniformTraffic.name: UniformTraffic,
        HotspotTraffic.name: HotspotTraffic,
        LocalTraffic.name: LocalTraffic,
        TransposeTraffic.name: TransposeTraffic,
        BitComplementTraffic.name: BitComplementTraffic,
        BitReversalTraffic.name: BitReversalTraffic,
    }
)


def available_patterns() -> List[str]:
    """All registered traffic-pattern names."""
    return sorted(_FACTORIES)


def make_traffic(
    name: str, topology: Topology, **options: Any
) -> TrafficPattern:
    """Instantiate the pattern called *name* on *topology*.

    Extra keyword options are forwarded to the pattern constructor
    (e.g. ``fraction=0.04`` for hotspot, ``radius=3`` for local).
    """
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown traffic pattern {name!r}; "
            f"available: {', '.join(available_patterns())}"
        )
    return factory(topology, **options)


__all__ = ["available_patterns", "make_traffic"]

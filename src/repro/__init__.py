"""repro — a reproduction of Boppana & Chalasani (ISCA 1993).

A flit-level wormhole-routing simulator for k-ary n-cubes and meshes, the
six deadlock-free routing algorithms the paper compares (e-cube,
north-last, 2pn, phop, nhop, nbc), the paper's traffic patterns and
statistics methodology, and an experiment harness that regenerates every
figure of the evaluation section.

Quickstart::

    from repro import Torus, SimulationConfig, run_point

    result = run_point(
        SimulationConfig(
            radix=8,
            n_dims=2,
            algorithm="nbc",
            traffic="uniform",
            offered_load=0.3,
        )
    )
    print(result.average_latency, result.achieved_utilization)
"""

from types import MappingProxyType

from repro.routing import (
    ALGORITHM_NAMES,
    RoutingAlgorithm,
    available_algorithms,
    make_algorithm,
)
from repro.topology import Mesh, Torus

__version__ = "1.0.0"

__all__ = [
    "ALGORITHM_NAMES",
    "Mesh",
    "RoutingAlgorithm",
    "SimulationConfig",
    "Torus",
    "__version__",
    "available_algorithms",
    "make_algorithm",
    "run_point",
]

# Read-only lazy-import table (immutable so ProcessPool workers can never
# drift from the parent; module state that drifts fails tier 1, e.g.
# test_campaign_identity.py::TestGoldenPins).
_LAZY_EXPORTS = MappingProxyType(
    {
        "SimulationConfig": ("repro.simulator.config", "SimulationConfig"),
        "run_point": ("repro.experiments.runner", "run_point"),
    }
)


def __getattr__(name: str) -> object:
    """Lazily resolve heavy simulator exports so bare imports stay cheap."""
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    module_name, attr = target
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value

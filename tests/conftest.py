"""Shared fixtures for the test suite."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict

import pytest
from hypothesis import Phase, settings

from repro.routing.base import RoutingAlgorithm
from repro.simulator import batch as batch_module
from repro.simulator.config import SimulationConfig
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus

#: What ``python -m tests.plants`` runs tier 1 under (with a fixed
#: ``--hypothesis-seed``): every run of a plant draws the same examples,
#: and a failure is reported as found, not shrunk.
settings.register_profile(
    "plants", database=None, phases=(Phase.explicit, Phase.generate)
)


@pytest.fixture(scope="session")
def torus4() -> Torus:
    return Torus(4, 2)


@pytest.fixture(scope="session")
def torus6() -> Torus:
    return Torus(6, 2)


@pytest.fixture(scope="session")
def torus8() -> Torus:
    return Torus(8, 2)


@pytest.fixture(scope="session")
def torus16() -> Torus:
    """The paper's network: a 16-ary 2-cube."""
    return Torus(16, 2)


@pytest.fixture(scope="session")
def mesh4() -> Mesh:
    return Mesh(4, 2)


@pytest.fixture(scope="session")
def torus4_3d() -> Torus:
    return Torus(4, 3)


def tiny_config(**overrides) -> SimulationConfig:
    """A fast 4x4-torus configuration for engine tests."""
    defaults = {
        "radix": 4,
        "n_dims": 2,
        "algorithm": "ecube",
        "traffic": "uniform",
        "offered_load": 0.2,
        "message_length": 4,
        "warmup_cycles": 200,
        "sample_cycles": 300,
        "gap_cycles": 50,
        "min_samples": 3,
        "max_samples": 3,
        "seed": 7,
    }
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def batch_config(**overrides) -> SimulationConfig:
    """``tiny_config`` on the batch backend (conservative flow control)."""
    defaults = {
        "flow_control": "conservative",
        "backend": "batch",
        "identity": "relaxed",
    }
    defaults.update(overrides)
    return tiny_config(**defaults)


@pytest.fixture
def make_tiny_config():
    return tiny_config


class NeverRoutes(RoutingAlgorithm):
    """Deliberately broken: offers no candidates, so worms stall until
    the watchdog fires (every shipped algorithm is deadlock-free, so a
    genuine deadlock needs a broken router)."""

    name = "never-routes"

    @property
    def num_virtual_channels(self):
        return 1

    def candidates(self, state, current, dst):
        self._check_not_delivered(current, dst)
        return []

    def message_class(self, src, dst, state):
        return 0


def observed_books(engine):
    """Everything an observer reports that both steppers must agree on
    (finalized: open blocked episodes settled, flit counters folded).

    ``Engine`` books a blocked message once per episode and
    ``ScanEngine`` once per blocked cycle; the totals must match, as
    must each ``msg_blocked`` trace's sum of ``cycles``.
    """
    observer = engine.observer
    observer.metrics_summary()
    blocked_cycles = sum(
        event["cycles"]
        for event in observer.trace.events
        if event["event"] == "msg_blocked"
    )
    assert observer.trace.dropped == 0
    assert blocked_cycles == observer.event_counts.get("msg_blocked", 0)
    return (
        list(observer.heatmap.blocked),
        list(observer.heatmap.carried),
        dict(observer.event_counts),
        {
            name: observer.probes.series(name)
            for name in observer.probes.scalar_names()
        },
    )


#: ``BatchEngine``'s per-cycle functions: ``step`` and everything it
#: runs on every cycle.  Structural tests hold rules over their bodies.
BATCH_CYCLE_FUNCTIONS = (
    "step",
    "_generate",
    "_route",
    "_draw_seqs",
    "_epilogue",
    "_eject",
    "_complete",
    "_flush",
    "_flush_alloc",
    "_transmit_kernel",
)


def batch_cycle_functions() -> Dict[str, ast.FunctionDef]:
    """The parsed ``BATCH_CYCLE_FUNCTIONS`` of batch.py, by name."""
    source = Path(batch_module.__file__).read_text(encoding="utf-8")
    tree = ast.parse(source)
    engine = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "BatchEngine"
    )
    found = {
        node.name: node
        for node in engine.body
        if isinstance(node, ast.FunctionDef)
        and node.name in BATCH_CYCLE_FUNCTIONS
    }
    assert set(found) == set(BATCH_CYCLE_FUNCTIONS), found.keys()
    return found

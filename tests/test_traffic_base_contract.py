"""Contract tests for the TrafficPattern base machinery."""

import random

import numpy as np
import pytest

from repro.topology.mesh import Mesh
from repro.topology.torus import Torus
from repro.traffic.base import TrafficPattern, UniformOverSetPattern
from repro.traffic.registry import available_patterns, make_traffic
from repro.util.errors import ConfigurationError


class _TwoTargets(UniformOverSetPattern):
    """Every node sends to nodes 1 and 2 (unless it is one of them)."""

    name = "two-targets"

    def candidate_destinations(self, src):
        return [dst for dst in (1, 2) if dst != src]


class _Silent(TrafficPattern):
    """A pattern that never generates messages."""

    name = "silent"

    def sample_destination(self, src, rng):
        return None

    def destination_distribution(self, src):
        return {}


class TestUniformOverSetPattern:
    @pytest.fixture
    def pattern(self, torus4):
        return _TwoTargets(torus4)

    def test_sampling_stays_in_set(self, pattern):
        rng = random.Random(0)
        for _ in range(50):
            assert pattern.sample_destination(5, rng) in (1, 2)

    def test_distribution_matches_set(self, pattern):
        assert pattern.destination_distribution(5) == {1: 0.5, 2: 0.5}
        assert pattern.destination_distribution(1) == {2: 1.0}

    def test_weights_derive_from_distribution(self, pattern, torus4):
        weights = pattern.hop_class_weights()
        assert sum(weights.values()) == pytest.approx(1.0)
        assert pattern.mean_distance() == pytest.approx(
            sum(h * w for h, w in weights.items())
        )


class TestDegeneratePatterns:
    def test_silent_pattern_has_empty_analytics(self, torus4):
        pattern = _Silent(torus4)
        assert pattern.hop_class_weights() == {}
        assert pattern.mean_distance() == 0.0

    def test_weights_are_cached(self, torus4):
        pattern = _TwoTargets(torus4)
        first = pattern.hop_class_weights()
        second = pattern.hop_class_weights()
        assert first == second
        first[99] = 1.0  # the returned dict is a copy
        assert 99 not in pattern.hop_class_weights()


class TestRegistry:
    def test_all_registered_patterns_constructible(self, torus16):
        for name in available_patterns():
            pattern = make_traffic(name, torus16)
            assert pattern.name == name

    def test_unknown_pattern_raises(self, torus4):
        with pytest.raises(ConfigurationError, match="unknown traffic"):
            make_traffic("rush-hour", torus4)

    def test_options_forwarded(self, torus16):
        pattern = make_traffic("local", torus16, radius=2)
        assert pattern.radius == 2

    def test_bad_option_surfaces(self, torus4):
        with pytest.raises(TypeError):
            make_traffic("uniform", torus4, radius=2)


def _scalar_analytics(pattern):
    """``hop_class_weights`` / ``mean_distance`` / ``destination_table``
    as they were computed before ``Topology`` served geometry from
    tables: one scalar distance per (src, dst), one ``[src, dst]`` store
    per probability.  Float sums run in the same (src, dict-order dst)
    sequence, so the comparison below is ``==``, not ``approx``."""
    topology = pattern.topology
    weights = {}
    active_sources = 0
    probs = np.zeros((topology.num_nodes, topology.num_nodes))
    for src in range(topology.num_nodes):
        dist = pattern.destination_distribution(src)
        if not dist:
            continue
        active_sources += 1
        for dst, prob in dist.items():
            hops = sum(
                topology.dim_distance(src, dst, dim)
                for dim in range(topology.n_dims)
            )
            weights[hops] = weights.get(hops, 0.0) + prob
            probs[src, dst] = prob
    if active_sources:
        for hops in weights:
            weights[hops] /= active_sources
    mean = sum(hops * weight for hops, weight in weights.items())
    cum = np.cumsum(probs, axis=1)
    active = cum[:, -1] > 0.0
    cum[active] /= cum[active, -1][:, None]
    return weights, mean, cum


class TestAnalyticsBitIdentity:
    """The arrival rate is derived from ``mean_distance``: one ulp of
    drift there changes every simulated statistic."""

    TOPOLOGIES = {
        "torus:16x2": lambda: Torus(16, 2),
        "torus:8x2": lambda: Torus(8, 2),
        "mesh:4x2": lambda: Mesh(4, 2),
    }

    @pytest.mark.parametrize("spec", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("name", available_patterns())
    def test_equal_to_scalar_reference(self, spec, name):
        topology = self.TOPOLOGIES[spec]()
        options = {"radius": 1} if name == "local" and spec == "mesh:4x2" else {}
        pattern = make_traffic(name, topology, **options)
        weights, mean, table = _scalar_analytics(pattern)
        got = pattern.hop_class_weights()
        # Values and first-occurrence key order (mean_distance sums
        # over it).
        assert list(got.items()) == list(weights.items())
        assert all(type(hops) is int for hops in got)
        assert pattern.mean_distance() == mean
        assert pattern.destination_table().tobytes() == table.tobytes()

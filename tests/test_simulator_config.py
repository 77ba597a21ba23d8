"""Unit tests for SimulationConfig validation and builders."""

import dataclasses

import pytest

from repro.simulator.config import SimulationConfig
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus
from repro.util.errors import ConfigurationError


class TestDefaults:
    def test_defaults_are_the_paper_setup(self):
        config = SimulationConfig()
        assert config.radix == 16
        assert config.n_dims == 2
        assert config.topology == "torus"
        assert config.message_length == 16
        assert config.switching == "wormhole"
        assert config.injection_limit is not None

    def test_default_buffer_depth_wormhole_ideal(self):
        assert SimulationConfig().effective_buffer_depth() == 1

    def test_default_buffer_depth_wormhole_conservative(self):
        config = SimulationConfig(flow_control="conservative")
        assert config.effective_buffer_depth() == 2

    def test_default_buffer_depth_vct_is_packet(self):
        config = SimulationConfig(switching="vct", message_length=20)
        assert config.effective_buffer_depth() == 20

    def test_default_buffer_depth_saf_is_packet(self):
        config = SimulationConfig(switching="saf")
        assert config.effective_buffer_depth() == 16


class TestValidation:
    def test_rejects_unknown_topology(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(topology="hypercube")

    def test_rejects_unknown_switching(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(switching="circuit")

    def test_rejects_unknown_selection_policy(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(selection_policy="psychic")

    def test_rejects_unknown_flow_control(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(flow_control="wishful")

    @pytest.mark.parametrize(
        "field, value, text",
        [
            ("topology", "hypercube",
             "topology must be 'torus' or 'mesh', got 'hypercube'"),
            ("switching", "circuit",
             "switching must be one of ('wormhole', 'vct', 'saf'), "
             "got 'circuit'"),
            ("selection_policy", "psychic",
             "selection_policy must be one of ('least_multiplexed', "
             "'random', 'first'), got 'psychic'"),
            ("flow_control", "wishful",
             "flow_control must be one of ('ideal', 'conservative'), "
             "got 'wishful'"),
            ("mux_policy", "lottery",
             "mux_policy must be one of ('round_robin', 'highest_class'), "
             "got 'lottery'"),
            ("backend", "gpu",
             "backend must be one of ('object', 'batch'), got 'gpu'"),
        ],
    )
    def test_rejection_names_the_field_the_choices_and_the_value(
        self, field, value, text
    ):
        with pytest.raises(ConfigurationError) as error:
            SimulationConfig(**{field: value})
        assert str(error.value) == text

    def test_rejects_negative_load(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(offered_load=-0.5)

    def test_rejects_zero_message_length(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(message_length=0)

    def test_rejects_max_below_min_samples(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(min_samples=5, max_samples=3)

    def test_rejects_small_buffer_for_vct(self):
        config = SimulationConfig(switching="vct", vc_buffer_depth=4)
        with pytest.raises(ConfigurationError):
            config.effective_buffer_depth()

    def test_rejects_zero_injection_limit(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(injection_limit=0)

    def test_injection_limit_none_allowed(self):
        assert SimulationConfig(injection_limit=None).injection_limit is None

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_rejects_non_positive_deadlock_threshold(self, threshold):
        """The watchdog trips once ``cycle - last_progress`` exceeds the
        threshold: below 1, one idle cycle with traffic in flight would
        count as a deadlock."""
        with pytest.raises(ConfigurationError, match="deadlock_threshold"):
            SimulationConfig(deadlock_threshold=threshold)

    def test_no_knob_gates_the_deadlock_report(self):
        """Every watchdog trip reports its wait-for graph; no field opts
        into it."""
        assert "sanitize" not in {
            field.name for field in dataclasses.fields(SimulationConfig)
        }
        with pytest.raises(TypeError, match="sanitize"):
            SimulationConfig(sanitize=True)


class TestBuilders:
    def test_builds_torus(self):
        topo = SimulationConfig(radix=4).build_topology()
        assert isinstance(topo, Torus)
        assert topo.radix == 4

    def test_builds_mesh(self):
        topo = SimulationConfig(radix=4, topology="mesh").build_topology()
        assert isinstance(topo, Mesh)

    def test_builds_algorithm(self):
        config = SimulationConfig(radix=4, algorithm="nbc")
        topo = config.build_topology()
        assert config.build_algorithm(topo).name == "nbc"

    def test_builds_traffic_with_options(self):
        config = SimulationConfig(
            radix=16,
            traffic="hotspot",
            traffic_options={"fraction": 0.08},
        )
        topo = config.build_topology()
        assert config.build_traffic(topo).fraction == 0.08

    def test_label_mentions_key_facts(self):
        label = SimulationConfig(radix=8, algorithm="phop").label()
        assert "phop" in label
        assert "8^2" in label

"""Engine edge cases: tiny messages, rings, extreme loads, VCT buffers,
an algorithm that offers a class it does not provision."""

import dataclasses

import pytest

from repro.experiments.runner import run_point
from repro.routing.positive_hop import PositiveHop
from repro.simulator.batch import BatchEngine
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import Engine
from repro.topology.torus import Torus
from repro.util.errors import RoutingError
from tests.conftest import batch_config, tiny_config


class TestSingleFlitMessages:
    def test_single_flit_latency_equals_distance(self):
        config = tiny_config(
            radix=8, message_length=1, offered_load=0.02, seed=3
        )
        engine = Engine(config)
        engine.start_sample()
        engine.run_cycles(1500)
        sample = engine.end_sample()
        assert sample.delivered > 10
        assert any(
            latency == hops for latency, hops in sample.deliveries
        )
        assert all(
            latency >= hops for latency, hops in sample.deliveries
        )

    def test_single_flit_under_load(self):
        config = tiny_config(message_length=1, offered_load=0.9, seed=4)
        engine = Engine(config)
        engine.run_cycles(2000)
        assert engine.conservation_check()
        assert engine.delivered_total > 100


class TestOneDimensionalRing:
    def test_ecube_on_ring(self):
        config = tiny_config(radix=8, n_dims=1, seed=5)
        result = run_point(config)
        assert result.messages_delivered > 0

    def test_hop_schemes_on_ring(self):
        for algorithm in ("phop", "nhop", "nbc"):
            config = tiny_config(
                radix=6, n_dims=1, algorithm=algorithm, seed=6
            )
            result = run_point(config)
            assert result.messages_delivered > 0, algorithm


class TestRadixTwo:
    def test_smallest_torus(self):
        """A 2-ary 2-cube: every hop crosses a wrap edge."""
        config = tiny_config(radix=2, offered_load=0.3, seed=7)
        result = run_point(config)
        assert result.messages_delivered > 0


class TestExtremeLoads:
    def test_zero_load_runs_quietly(self):
        engine = Engine(tiny_config(offered_load=0.0))
        engine.run_cycles(1000)
        assert engine.generated_total == 0
        assert engine.cycle == 1000

    def test_full_overload_stays_stable(self):
        config = tiny_config(offered_load=1.0, seed=8)
        engine = Engine(config)
        engine.run_cycles(3000)
        assert engine.conservation_check()
        # Congestion control keeps in-flight bounded.
        assert engine.in_flight < 400


class TestBufferDepths:
    def test_deep_buffers_never_hurt_throughput(self):
        common = {"offered_load": 0.8, "seed": 9}
        shallow = Engine(tiny_config(vc_buffer_depth=1, **common))
        deep = Engine(tiny_config(vc_buffer_depth=8, **common))
        for engine in (shallow, deep):
            engine.run_cycles(500)
            engine.start_sample()
            engine.run_cycles(1200)
        shallow_sample = shallow.end_sample()
        deep_sample = deep.end_sample()
        assert deep_sample.flits_moved >= 0.9 * shallow_sample.flits_moved

    def test_vct_buffer_larger_than_packet_allowed(self):
        config = tiny_config(
            switching="vct", message_length=4, vc_buffer_depth=16, seed=10
        )
        result = run_point(config)
        assert result.messages_delivered > 0


class TestPermutationTrafficEndToEnd:
    def test_transpose_on_torus(self):
        config = tiny_config(traffic="transpose", seed=11)
        result = run_point(config)
        assert result.messages_delivered > 0

    def test_bit_complement(self):
        config = tiny_config(traffic="bit-complement", seed=12)
        result = run_point(config)
        assert result.messages_delivered > 0
        # Bit-complement on a 4x4 torus: wrap-around makes every
        # coordinate one hop from its complement, so all messages are in
        # the 2-hop class.
        assert set(result.hop_class_latency) == {2}


class TestSelectionPolicies:
    @pytest.mark.parametrize("policy", ["least_multiplexed", "random", "first"])
    def test_all_policies_work(self, policy):
        config = tiny_config(
            algorithm="nbc", selection_policy=policy, seed=13
        )
        result = run_point(config)
        assert result.messages_delivered > 0


class TestUnprovisionedClasses:
    """A class outside ``[0, V)`` would be flattened into another
    channel's virtual channel: seeds 4 and 5 once ran 3 000 cycles on
    such aliases without a word, seed 3 died with a bare IndexError."""

    class ThreeClassPhop(PositiveHop):
        """Positive-hop with 3 classes where the 4x4 torus (diameter 4)
        needs 5."""

        @property
        def num_virtual_channels(self):
            return 3

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("backend", ["object", "batch"])
    def test_routing_by_an_unprovisioned_class_is_refused(
        self, backend, seed
    ):
        topology = Torus(4, 2)
        algorithm = self.ThreeClassPhop(topology)
        if backend == "object":
            engine = Engine(
                tiny_config(offered_load=0.3, seed=seed),
                topology=topology, algorithm=algorithm,
            )
        else:
            engine = BatchEngine(
                batch_config(offered_load=0.3), [seed],
                topology=topology, algorithm=algorithm,
            )
        with pytest.raises(RoutingError) as error:
            engine.run_cycles(3000)
        message = str(error.value)
        assert "routing algorithm 'phop' offers virtual-channel class" in (
            message
        )
        assert " at node " in message and " for destination " in message
        assert "provisions only 3" in message

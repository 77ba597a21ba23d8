"""Congestion control effects and the deadlock watchdog."""

import pytest

from repro.simulator.engine import Engine
from repro.util.errors import DeadlockError
from tests.conftest import NeverRoutes, tiny_config


class TestCongestionControl:
    def test_refusals_appear_past_saturation(self):
        engine = Engine(tiny_config(offered_load=1.0, seed=3))
        engine.run_cycles(600)
        engine.start_sample()
        engine.run_cycles(600)
        sample = engine.end_sample()
        assert sample.refused > 0

    def test_no_refusals_at_light_load(self):
        engine = Engine(tiny_config(offered_load=0.05, seed=3))
        engine.start_sample()
        engine.run_cycles(1500)
        sample = engine.end_sample()
        assert sample.refused == 0

    def test_limit_bounds_saturation_latency(self):
        """The paper's rationale: input-buffer limits keep latencies
        bounded past saturation."""
        def mean_latency(limit):
            engine = Engine(
                tiny_config(offered_load=1.0, injection_limit=limit, seed=4)
            )
            engine.run_cycles(2500)
            engine.start_sample()
            engine.run_cycles(1500)
            return engine.end_sample().mean_latency()

        assert mean_latency(1) < mean_latency(8)

    def test_disabled_control_admits_everything(self):
        engine = Engine(
            tiny_config(offered_load=1.0, injection_limit=None, seed=5)
        )
        engine.run_cycles(800)
        assert engine.controller.refused == 0


class TestWatchdog:
    def test_stuck_network_raises_deadlock_error(self, torus4):
        config = tiny_config(offered_load=0.5, deadlock_threshold=300)
        engine = Engine(config, algorithm=NeverRoutes(torus4))
        with pytest.raises(DeadlockError, match="no progress"):
            engine.run_cycles(5000)

    def test_idle_network_never_raises(self):
        config = tiny_config(offered_load=0.0, deadlock_threshold=100)
        engine = Engine(config)
        engine.run_cycles(2000)  # nothing in flight: no watchdog firing

    @pytest.mark.parametrize(
        "algorithm", ["ecube", "nlast", "2pn", "phop", "nhop", "nbc"]
    )
    def test_paper_algorithms_never_trip_watchdog(self, algorithm):
        """Deadlock freedom, empirically: sustained overload with a tight
        watchdog threshold."""
        config = tiny_config(
            radix=6,
            algorithm=algorithm,
            offered_load=1.0,
            deadlock_threshold=2000,
            seed=6,
        )
        engine = Engine(config)
        engine.run_cycles(8000)
        assert engine.delivered_total > 0

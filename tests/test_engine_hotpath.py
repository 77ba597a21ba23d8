"""Hot-path optimizations must not change simulated behaviour.

The engine's performance work (idle-cycle fast-forward, precomputed
multiplexer scan orders, retry-hint pruning of the ideal-flow-control
fixpoint, inlined flit moves, rng-stream hoisting, scratch lists in
``_select``) is only admissible if the flit schedule is *bit-identical*
to the straightforward seed engine.  These tests pin that down:

* golden traces recorded from the seed engine (commit ``0d46897``) for
  all six algorithms and for every switching / flow-control / mux mode;
* step-by-step driving vs ``run_cycles`` (which fast-forwards idle
  stretches) must land in exactly the same state, rng streams included.
"""

import pytest

from repro.simulator.config import SimulationConfig
from repro.simulator.engine import Engine
from repro.simulator.reference import ScanEngine
from repro.traffic.arrivals import GeometricArrivals
from repro.util.rng import STREAM_ARRIVALS, STREAM_ROUTING, RngStreams

# (flits_moved_total, delivered_total, generated_total) after 3000 cycles
# on a 6x6 torus at offered load 0.5, seed 7 — recorded from the seed
# engine before any hot-path optimization.
SEED_GOLDEN_TRACES = {
    "ecube": (129222, 2844, 2950),
    "nlast": (142518, 3002, 3089),
    "2pn": (187721, 3856, 3914),
    "phop": (166584, 3399, 3437),
    "nhop": (166165, 3398, 3442),
    "nbc": (194562, 3949, 4002),
}

# (flits_moved_total, delivered_total) after 2000 cycles, nbc on a 4x4
# torus at offered load 0.4, seed 3 — seed-engine values per mode.
SEED_GOLDEN_MODES = {
    ("saf", "ideal", "round_robin"): (46980, 1356),
    ("vct", "ideal", "round_robin"): (47654, 1380),
    ("wormhole", "conservative", "round_robin"): (46220, 1345),
    ("wormhole", "ideal", "highest_class"): (46193, 1346),
}

#: Both steppers are held to the seed engine's traces: the reference
#: (which *is* the seed loop) and the engine every result comes from.
STEPPERS = {"scan": ScanEngine, "active": Engine}


class TestGoldenTraces:
    @pytest.mark.parametrize("scheduler", list(STEPPERS))
    @pytest.mark.parametrize("algorithm", sorted(SEED_GOLDEN_TRACES))
    def test_algorithm_trace_matches_seed_engine(self, algorithm, scheduler):
        config = SimulationConfig(
            radix=6,
            n_dims=2,
            algorithm=algorithm,
            offered_load=0.5,
            seed=7,
        )
        engine = STEPPERS[scheduler](config)
        engine.run_cycles(3000)
        trace = (
            engine.flits_moved_total,
            engine.delivered_total,
            engine.generated_total,
        )
        assert trace == SEED_GOLDEN_TRACES[algorithm]
        assert engine.conservation_check()

    @pytest.mark.parametrize("scheduler", list(STEPPERS))
    @pytest.mark.parametrize(
        "switching,flow_control,mux_policy", sorted(SEED_GOLDEN_MODES)
    )
    def test_mode_trace_matches_seed_engine(
        self, switching, flow_control, mux_policy, scheduler
    ):
        config = SimulationConfig(
            radix=4,
            n_dims=2,
            algorithm="nbc",
            offered_load=0.4,
            seed=3,
            switching=switching,
            flow_control=flow_control,
            mux_policy=mux_policy,
        )
        engine = STEPPERS[scheduler](config)
        engine.run_cycles(2000)
        key = (switching, flow_control, mux_policy)
        assert (
            engine.flits_moved_total,
            engine.delivered_total,
        ) == SEED_GOLDEN_MODES[key]
        assert engine.conservation_check()


class TestObservedGoldenTraces:
    """Full observability on must not perturb the flit schedule.

    Same golden counters as above, with a repro.obs observer attached
    (probes, event trace incl. per-flit moves, heatmap, profiler all
    enabled): observation reads engine state but never feeds back into
    it, so the schedule stays bit-identical to the seed engine.
    """

    @pytest.mark.parametrize("scheduler", list(STEPPERS))
    @pytest.mark.parametrize("algorithm", sorted(SEED_GOLDEN_TRACES))
    def test_observed_trace_matches_seed_engine(self, algorithm, scheduler):
        config = SimulationConfig(
            radix=6,
            n_dims=2,
            algorithm=algorithm,
            offered_load=0.5,
            seed=7,
            obs=True,
            obs_options={
                "stride": 16,
                "trace_flits": True,
                "trace_limit": 1000,
            },
        )
        engine = STEPPERS[scheduler](config)
        engine.run_cycles(3000)
        trace = (
            engine.flits_moved_total,
            engine.delivered_total,
            engine.generated_total,
        )
        assert trace == SEED_GOLDEN_TRACES[algorithm]
        assert engine.conservation_check()
        # The observer's own books agree with the engine's counters.
        counts = engine.observer.event_counts
        assert counts["flit_moved"] == engine.flits_moved_total
        assert counts["msg_delivered"] == engine.delivered_total
        assert counts["msg_created"] == engine.generated_total


class TestIdleFastForward:
    def _config(self, **overrides):
        base = {
            "radix": 4,
            "n_dims": 2,
            "algorithm": "ecube",
            "offered_load": 0.03,
            "seed": 11,
        }
        base.update(overrides)
        return SimulationConfig(**base)

    def test_run_cycles_matches_stepping(self):
        """run_cycles (which fast-forwards) == step-by-step driving."""
        stepped = Engine(self._config())
        jumped = Engine(self._config())
        for _ in range(6000):
            stepped.step()
        jumped.run_cycles(6000)
        assert jumped.cycle == stepped.cycle == 6000
        assert jumped.flits_moved_total == stepped.flits_moved_total
        assert jumped.generated_total == stepped.generated_total
        assert jumped.delivered_total == stepped.delivered_total
        assert jumped.in_flight == stepped.in_flight
        # The skipped cycles must not have touched any rng stream.
        for name in (STREAM_ARRIVALS, STREAM_ROUTING):
            assert (
                jumped.rng.stream(name).getstate()
                == stepped.rng.stream(name).getstate()
            )
        assert jumped.conservation_check()

    def test_matches_stepping_across_sample_epochs(self):
        stepped = Engine(self._config(offered_load=0.1, seed=3))
        jumped = Engine(self._config(offered_load=0.1, seed=3))
        for chunk in (500, 700, 300):
            for _ in range(chunk):
                stepped.step()
            stepped.advance_streams()
            jumped.run_cycles(chunk)
            jumped.advance_streams()
        assert jumped.flits_moved_total == stepped.flits_moved_total
        assert jumped.delivered_total == stepped.delivered_total

    def test_zero_load_jumps_straight_to_the_end(self):
        engine = Engine(self._config(offered_load=0.0))
        engine.run_cycles(10_000_000)  # instantaneous with fast-forward
        assert engine.cycle == 10_000_000
        assert engine.generated_total == 0

    def test_partial_jump_stops_at_next_arrival(self):
        engine = Engine(self._config(offered_load=0.03))
        first_due = engine.arrivals.next_due
        assert first_due > 0  # idle lead-in at this load/seed
        engine.run_cycles(first_due)
        assert engine.cycle == first_due
        assert engine.generated_total == 0  # arrival cycle not yet run


class TestArrivalsNextDue:
    def test_tracks_heap_minimum(self):
        rng = RngStreams(9).stream(STREAM_ARRIVALS)
        arrivals = GeometricArrivals(num_nodes=8, rate=0.05)
        arrivals.start(0, rng)
        for now in range(200):
            expected = arrivals._heap[0][0]
            assert arrivals.next_due == expected
            due = arrivals.pop_due(now, rng)
            if now < expected:
                assert due == []
            else:
                assert due

    def test_reseed_refreshes_peek(self):
        rng = RngStreams(4).stream(STREAM_ARRIVALS)
        arrivals = GeometricArrivals(num_nodes=4, rate=0.2)
        arrivals.start(0, rng)
        arrivals.reseed(50, rng)
        assert arrivals.next_due == arrivals._heap[0][0]
        assert arrivals.next_due > 50

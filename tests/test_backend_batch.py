"""The batch backend's own identity: a lane is a function of (config, seed).

The contract of :mod:`repro.simulator.batch` is statistical against the
object engine (``repro-check equivalence``) and exact against itself: a lane
of a :class:`BatchEngine` has the **same state fingerprint** after any
number of cycles whether its seed runs alone or beside any other seeds,
whatever happens to those other lanes.  The single-lane engine is the
oracle here; everything drives a grouped engine and compares.

Covered:

* the full supported matrix — all six paper algorithms x mesh/torus x
  wormhole/VCT, both mux policies x all selection policies — compared
  by state fingerprint at an uneven cycle schedule (catches divergence
  inside a run, not just at the end), conservation at every stop;
* a randomized fuzz sweep over 50 sampled configurations, including
  switching, injection limits and odd worm lengths;
* lane mechanics: B=1, a deadlock firing in a subset of lanes while the
  rest continue lockstep, early-drained (stopped) lanes, idle
  fast-forward beside a stopped lane;
* :func:`run_batch` raising like :func:`run_point` when a lane dies;
* unsupported configurations raising :class:`ConfigurationError`;
* the parallel scheduler's seed-batch grouping.
"""

import dataclasses
import functools
import random

import pytest

from repro.experiments.parallel import run_points, run_sweep_points
from repro.experiments.runner import run_batch, run_point
from repro.routing.base import RoutingAlgorithm
from repro.routing.registry import ALGORITHM_NAMES
from repro.simulator.batch import BatchEngine
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import Engine
from repro.topology.torus import Torus
from repro.util.errors import ConfigurationError, DeadlockError
from tests.conftest import tiny_config


def batch_config(**overrides) -> SimulationConfig:
    """A 4x4 batch-capable (conservative) config for identity tests."""
    defaults = {
        "flow_control": "conservative",
        "backend": "batch",
        "identity": "relaxed",
        "offered_load": 0.45,
        "message_length": 4,
    }
    defaults.update(overrides)
    return tiny_config(**defaults)


def drive_both(config, seeds, schedule, **parts):
    """Step a grouped BatchEngine and per-seed ones through *schedule*.

    Yields (seed, single-lane fingerprint, grouped-lane fingerprint)
    after every chunk of the schedule, so divergence is caught where it
    starts.
    """
    engine = BatchEngine(config, seeds, **parts)
    singles = [BatchEngine(config, [seed], **parts) for seed in seeds]
    for cycles in schedule:
        engine.run_cycles(cycles)
        for index, single in enumerate(singles):
            single.run_cycles(cycles)
            yield (
                seeds[index],
                single.state_fingerprint(0),
                engine.state_fingerprint(index),
            )
        assert all(
            engine.conservation_check(index) for index in range(len(seeds))
        )


class TestMatrixIdentity:
    """The acceptance matrix: 6 algorithms x mesh/torus x wormhole/vct."""

    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    @pytest.mark.parametrize("switching", ["wormhole", "vct"])
    def test_fingerprint_identity(self, algorithm, topology, switching):
        config = batch_config(
            algorithm=algorithm, topology=topology, switching=switching
        )
        # Uneven chunks: identity must hold mid-warmup, mid-worm, and
        # deep into the congested steady state, not just at round marks.
        for seed, expected, actual in drive_both(
            config, [23, 7], (1, 7, 113, 179)
        ):
            assert actual == expected, (
                f"{algorithm}/{topology}/{switching} diverged for "
                f"seed {seed}"
            )

    @pytest.mark.parametrize("mux_policy", ["round_robin", "highest_class"])
    @pytest.mark.parametrize(
        "selection_policy", ["first", "random", "least_multiplexed"]
    )
    def test_policy_identity(self, mux_policy, selection_policy):
        config = batch_config(
            algorithm="nbc",
            offered_load=0.6,
            mux_policy=mux_policy,
            selection_policy=selection_policy,
        )
        for seed, expected, actual in drive_both(
            config, [11, 12, 13], (3, 197)
        ):
            assert actual == expected, (
                f"{mux_policy}/{selection_policy} diverged for seed {seed}"
            )


class TestFuzzIdentity:
    def test_fifty_sampled_configs(self):
        """Randomized composition sweep (fixed rng seed: reproducible)."""
        rng = random.Random(20260808)
        for trial in range(50):
            config = batch_config(
                algorithm=rng.choice(ALGORITHM_NAMES),
                topology=rng.choice(["mesh", "torus"]),
                switching=rng.choice(["wormhole", "vct"]),
                selection_policy=rng.choice(
                    ["least_multiplexed", "random", "first"]
                ),
                mux_policy=rng.choice(["round_robin", "highest_class"]),
                offered_load=rng.choice([0.1, 0.3, 0.6, 0.9]),
                message_length=rng.choice([2, 4, 7]),
                injection_limit=rng.choice([None, 1, 2]),
            )
            seeds = [rng.randrange(1, 10_000) for _ in range(2)]
            cycles = rng.randrange(60, 160)
            for seed, expected, actual in drive_both(
                config, seeds, (cycles,)
            ):
                assert actual == expected, (
                    f"fuzz trial {trial} diverged: {config.label()} "
                    f"seed {seed}"
                )


class _NeverRoutes(RoutingAlgorithm):
    """Deliberately broken: offers no candidates, so worms stall until
    the watchdog fires (all shipped algorithms are deadlock-free, so a
    genuine per-lane deadlock needs a broken router)."""

    name = "never-routes"

    @property
    def num_virtual_channels(self):
        return 1

    def candidates(self, state, current, dst):
        self._check_not_delivered(current, dst)
        return []

    def message_class(self, src, dst, state):
        return 0


class TestBatchEdgeCases:
    def test_single_lane_batch(self):
        """B=1: the degenerate batch is the lane of a wider one."""
        config = batch_config(algorithm="nbc", offered_load=0.6)
        wide = BatchEngine(config, [41, 42, 43])
        lone = BatchEngine(config, [42])
        wide.run_cycles(250)
        lone.run_cycles(250)
        assert lone.state_fingerprint(0) == wide.state_fingerprint(1)
        assert lone.conservation_check(0)
        assert lone.lanes[0].delivered_total > 0

    def test_deadlock_in_subset_of_lanes(self):
        """A watchdog trip freezes its lane; the rest continue lockstep.

        With a broken router at a trickle load, lanes deadlock when
        their own traffic first stalls long enough — at different
        cycles per seed.  At this horizon some seeds have tripped and
        some have not; each lane must die, or sail past its siblings'
        deaths unperturbed, exactly as it does alone.
        """
        topology = Torus(4, 2)
        config = batch_config(
            offered_load=0.0005, deadlock_threshold=50
        )
        seeds = [1, 2, 3, 6]
        engine = BatchEngine(
            config, seeds, topology=topology,
            algorithm=_NeverRoutes(topology),
        )
        engine.run_cycles(200)
        errors = engine.lane_errors()
        assert sorted(errors) == [1, 2]
        assert engine.running_lane_indices == [0, 3]
        for index, error in errors.items():
            assert isinstance(error, DeadlockError)
            assert f"seed {seeds[index]}" in str(error)
        for index, seed in enumerate(seeds):
            single = BatchEngine(
                config, [seed], topology=topology,
                algorithm=_NeverRoutes(topology),
            )
            single.run_cycles(200)
            assert (0 in single.lane_errors()) == (index in errors)
            assert engine.state_fingerprint(index) == (
                single.state_fingerprint(0)
            )

    def test_stopped_lane_does_not_perturb_survivors(self):
        """Early-drained lanes freeze; the rest keep their schedules."""
        config = batch_config(algorithm="nlast", offered_load=0.6)
        seeds = [5, 9, 13]
        engine = BatchEngine(config, seeds)
        engine.run_cycles(150)
        engine.stop_lane(1)
        assert engine.running_lane_indices == [0, 2]
        frozen = engine.state_fingerprint(1)
        engine.run_cycles(150)
        # The stopped lane's state (cycle included) is untouched ...
        assert engine.state_fingerprint(1) == frozen
        # ... and survivors match lone engines that ran 300 cycles.
        for index in (0, 2):
            single = BatchEngine(config, [seeds[index]])
            single.run_cycles(300)
            assert engine.state_fingerprint(index) == (
                single.state_fingerprint(0)
            )

    def test_idle_fast_forward_with_stopped_lane(self):
        """All-idle fast-forward consults only the running lanes, and
        jumps to the same state that stepping every cycle reaches."""
        config = batch_config(offered_load=0.01)
        engine = BatchEngine(config, [3, 4])
        engine.stop_lane(0)
        engine.run_cycles(500)
        assert engine.lanes[0].cycle == 0
        stepped = BatchEngine(config, [4])
        for _ in range(500):
            stepped.step()
        assert engine.state_fingerprint(1) == stepped.state_fingerprint(0)
        assert engine.lanes[1].delivered_total > 0


class TestRunBatch:
    def test_matches_run_point_per_seed(self):
        """The full convergence schedule, summarized per lane: what
        ``run_points`` files for a seed is what that seed yields alone."""
        config = batch_config(algorithm="nbc", offered_load=0.5)
        seeds = [4, 8, 15]
        batched = run_batch(config, seeds)
        for seed, result in zip(seeds, batched):
            (single,) = run_points(
                [dataclasses.replace(config, seed=seed)]
            )
            expected = single.to_json_dict()
            actual = result.to_json_dict()
            # Wall clock is the one legitimately grouping-dependent
            # field (lockstep lanes share a single timer).
            expected.pop("wall_seconds")
            actual.pop("wall_seconds")
            assert actual == expected

    def test_deadlock_raises_like_run_point(self, monkeypatch):
        topology = Torus(4, 2)
        config = batch_config(offered_load=0.01, deadlock_threshold=50)
        monkeypatch.setattr(
            "repro.experiments.runner.BatchEngine",
            functools.partial(
                BatchEngine, topology=topology,
                algorithm=_NeverRoutes(topology),
            ),
        )
        with pytest.raises(DeadlockError, match="no progress"):
            run_batch(config, [1, 2])
        config = dataclasses.replace(
            config, backend="object", identity="strict"
        )
        engine = Engine(config, topology, _NeverRoutes(topology))
        with pytest.raises(DeadlockError, match="no progress"):
            run_point(config, engine=engine)


class TestUnsupportedConfigs:
    def test_config_rejects_batch_with_ideal_flow_control(self):
        with pytest.raises(ConfigurationError, match="conservative"):
            batch_config(flow_control="ideal")

    def test_config_rejects_batch_with_saf(self):
        with pytest.raises(ConfigurationError, match="saf"):
            batch_config(switching="saf", message_length=4)

    def test_config_rejects_batch_with_obs(self):
        with pytest.raises(ConfigurationError, match="obs"):
            batch_config(obs=True)

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            tiny_config(backend="gpu")

    def test_engine_rejects_empty_seed_list(self):
        with pytest.raises(ConfigurationError, match="seed"):
            BatchEngine(batch_config(), [])

    def test_engine_rejects_ideal_flow_control(self):
        # Constructed directly (bypassing config validation's coupled
        # check) the engine still refuses ideal flow control.
        config = tiny_config(flow_control="ideal")
        with pytest.raises(ConfigurationError, match="conservative"):
            BatchEngine(config, [1])

    def test_engine_rejects_oversized_message_length(self):
        config = batch_config(message_length=2 ** 15)
        with pytest.raises(ConfigurationError, match="int16"):
            BatchEngine(config, [1])

    def test_engine_rejects_an_object_config(self):
        # Its results would be filed under the object engine's address.
        config = tiny_config(flow_control="conservative")
        with pytest.raises(ConfigurationError, match="backend='object'"):
            BatchEngine(config, [1])


class TestParallelSeedBatches:
    def test_grouped_equals_singles_and_survives_pool(self):
        """One seed-batch task per chunk == one batch per seed, serial
        and with real worker processes."""
        base = batch_config(algorithm="phop")
        configs = run_sweep_points(
            base, ["phop"], (0.3, 0.6), seeds=(2, 5, 11)
        )
        assert len(configs) == 6
        expected = run_points(configs, jobs=1, batch_size=1)
        serial = run_points(configs, jobs=1, batch_size=2)
        pooled = run_points(configs, jobs=2, batch_size=2)
        strip = [
            dataclasses.replace(r, wall_seconds=0.0) for r in expected
        ]
        assert [
            dataclasses.replace(r, wall_seconds=0.0) for r in serial
        ] == strip
        assert [
            dataclasses.replace(r, wall_seconds=0.0) for r in pooled
        ] == strip

    def test_checkpoint_is_not_portable_across_backends(self, tmp_path):
        """A campaign checkpointed under one backend does not resume
        under the other: their results are not the same numbers, so
        the signature (via ``identity``) keeps them apart."""
        path = str(tmp_path / "sweep.ckpt.json")
        base = batch_config(algorithm="ecube")
        object_configs = run_sweep_points(
            dataclasses.replace(
                base, backend="object", identity="strict"
            ),
            ["ecube"], (0.4,), seeds=(3, 7),
        )
        first = run_points(object_configs, checkpoint_path=path)
        batch_configs = run_sweep_points(
            base, ["ecube"], (0.4,), seeds=(3, 7)
        )
        lines = []
        resumed = run_points(
            batch_configs, checkpoint_path=path, progress=lines.append
        )
        assert not any("[skip]" in line for line in lines)
        assert resumed != first
        # Each side finds its own records again.
        assert run_points(object_configs, checkpoint_path=path) == first
        assert run_points(batch_configs, checkpoint_path=path) == resumed

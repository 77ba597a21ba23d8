"""The top-level package surface used by the README and examples."""

import os
import subprocess
import sys

import pytest

import repro


class TestTopLevelImports:
    def test_eager_exports(self):
        import repro

        assert repro.ALGORITHM_NAMES[0] == "ecube"
        assert repro.Torus(4, 2).num_nodes == 16
        assert repro.Mesh(4, 2).num_nodes == 16
        assert callable(repro.make_algorithm)

    def test_lazy_exports_resolve(self):
        import repro

        assert repro.SimulationConfig().radix == 16
        assert callable(repro.run_point)

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing

    def test_version(self):
        import repro

        assert repro.__version__

    def test_the_engine_loads_no_analysis_module(self):
        """Importing the engine (pool workers, both CLIs, every ledger
        pass do) loads none of ``repro.analysis``: the sanitizer imports
        its cycle search only at a deadlock."""
        script = (
            "import sys, repro.simulator.engine\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('repro.analysis')))"
        )
        source = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=source)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=120,
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == "[]"

    def test_readme_quickstart_snippet(self):
        """The exact code shown in README.md must keep working."""
        from repro import SimulationConfig, run_point

        result = run_point(
            SimulationConfig(
                radix=4,
                n_dims=2,
                algorithm="nbc",
                traffic="uniform",
                offered_load=0.4,
                message_length=4,
                warmup_cycles=200,
                sample_cycles=200,
                max_samples=3,
            )
        )
        assert result.average_latency > 0
        assert result.achieved_utilization > 0


class TestDoctests:
    def test_registry_doctest(self):
        import doctest

        import repro.routing.registry as module

        failures, _ = doctest.testmod(module)
        assert failures == 0

    def test_coords_doctest(self):
        import doctest

        import repro.topology.coords as module

        failures, _ = doctest.testmod(module)
        assert failures == 0

    def test_ring_doctest(self):
        import doctest

        import repro.topology.ring as module

        failures, _ = doctest.testmod(module)
        assert failures == 0

"""The batch backend's relaxed identity and its kernel helpers.

Bit-identity to the object engine is not the batch backend's contract —
that is statistical equivalence, checked by ``repro-check equivalence`` — but
it is still **deterministic**: the same config and seeds must reproduce
the same results, run to run and regardless of how seeds are grouped
into lockstep engines (``tests/test_backend_batch.py`` holds the
fingerprint matrix).  These tests pin that, plus flit conservation across
the algorithm grid, the config-validation fences, the interned
:class:`~repro.routing.tables.RouteTable`, and the batched draw helpers
(geometric gaps, destination sampling, numpy rng streams).
"""

import math

import numpy as np
import pytest

from repro.experiments.runner import run_batch
from repro.routing.registry import make_algorithm
from repro.routing.tables import RouteTable
from repro.simulator.batch import BatchEngine
from repro.topology.torus import Torus
from repro.traffic.arrivals import geometric_gaps
from repro.traffic.base import sample_destinations
from repro.traffic.uniform import UniformTraffic
from repro.util.errors import ConfigurationError
from repro.util.rng import RngStreams
from tests.conftest import tiny_config

ALGORITHMS = ("ecube", "2pn", "nbc", "nhop", "nlast", "phop")


def relaxed_config(**overrides):
    defaults = dict(
        flow_control="conservative",
        backend="batch",
        identity="relaxed",
    )
    defaults.update(overrides)
    return tiny_config(**defaults)


class TestConfigValidation:
    def test_default_identity_is_strict(self):
        assert tiny_config().identity == "strict"

    def test_relaxed_requires_batch_backend(self):
        with pytest.raises(ConfigurationError, match="backend='batch'"):
            tiny_config(
                identity="relaxed", flow_control="conservative"
            )

    def test_batch_requires_relaxed_identity(self):
        """identity is not a switch: the batch backend has one contract,
        and the error points at the bit-exact path."""
        with pytest.raises(ConfigurationError) as info:
            tiny_config(backend="batch", flow_control="conservative")
        assert "backend='object'" in str(info.value)
        assert "--jobs" in str(info.value)

    def test_unknown_identity_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(
                identity="loose",
                backend="batch",
                flow_control="conservative",
            )


class TestRelaxedDeterminism:
    def test_repeat_runs_are_identical(self):
        config = relaxed_config(algorithm="nbc", offered_load=0.3)
        seeds = [5, 6, 7]
        first = run_batch(config, seeds)
        second = run_batch(config, seeds)
        assert first == second

    def test_results_independent_of_lane_grouping(self):
        # One 4-lane engine vs two 2-lane engines vs four singles: the
        # per-seed results must not depend on which seeds share an
        # engine (each lane draws from its own generators).
        config = relaxed_config(algorithm="phop", offered_load=0.3)
        seeds = [11, 12, 13, 14]
        together = run_batch(config, seeds)
        paired = run_batch(config, seeds[:2]) + run_batch(
            config, seeds[2:]
        )
        singles = [
            run_batch(config, [seed])[0] for seed in seeds
        ]
        assert together == paired == singles

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_conservation_across_algorithms(self, algorithm):
        config = relaxed_config(algorithm=algorithm, offered_load=0.35)
        engine = BatchEngine(config, [3, 4])
        engine.run_cycles(600)
        for index in range(2):
            assert engine.conservation_check(index)

    def test_mesh_conservation_and_determinism(self):
        config = relaxed_config(
            algorithm="nhop", topology="mesh", offered_load=0.3
        )
        assert run_batch(config, [9, 10]) == run_batch(config, [9, 10])


class TestRouteTable:
    @pytest.fixture
    def table(self):
        topology = Torus(4, 2)
        return RouteTable(make_algorithm("nbc", topology))

    def test_interning_is_idempotent(self, table):
        algorithm = table.algorithm
        state = algorithm.new_state(0, 5)
        row = table.row_for(0, 5, state)
        again = table.row_for(0, 5, algorithm.new_state(0, 5))
        assert row == again
        assert table.size == 1

    def test_row_matches_algorithm_candidates(self, table):
        algorithm = table.algorithm
        state = algorithm.new_state(0, 5)
        row = table.row_for(0, 5, state)
        choices = algorithm.candidates_cached(state, 0, 5)
        v = algorithm.num_virtual_channels
        n = int(table.count[row])
        assert n == len(choices)
        for k, (link, vc_class) in enumerate(choices):
            assert table.cand_flat[row, k] == link.index * v + vc_class
            assert table.cand_ch[row, k] == link.index
            assert table.cand_dst[row, k] == link.dst
            assert bool(table.term[row, k]) == (link.dst == 5)
        # Padding stays -1 past the candidate count.
        assert (table.cand_flat[row, n:] == -1).all()

    def test_term_marks_destination_hops(self, table):
        # A node adjacent to the destination must offer at least one
        # terminal candidate; the table must agree with link.dst.
        algorithm = table.algorithm
        state = algorithm.new_state(1, 0)  # nodes 1 and 0 adjacent
        row = table.row_for(1, 0, state)
        n = int(table.count[row])
        terms = [bool(table.term[row, k]) for k in range(n)]
        dsts = [int(table.cand_dst[row, k]) for k in range(n)]
        assert any(terms)
        assert all(
            term == (dst == 0) for term, dst in zip(terms, dsts)
        )

    def test_successor_rows_are_interned_lazily(self, table):
        algorithm = table.algorithm
        state = algorithm.new_state(0, 5)
        row = table.row_for(0, 5, state)
        nonterm = [
            k
            for k in range(int(table.count[row]))
            if not table.term[row, k]
        ]
        assert nonterm, "0 -> 5 on a 4x4 torus is a multi-hop route"
        k = nonterm[0]
        assert table.succ[row, k] == -1  # not interned yet
        succ = table.successor(row, k)
        assert succ >= 0
        assert table.succ[row, k] == succ
        # The successor row describes the landing node's candidates.
        assert table.node[succ] == int(table.cand_dst[row, k])
        assert table.dst[succ] == 5

    def test_growth_preserves_rows(self):
        topology = Torus(4, 2)
        table = RouteTable(make_algorithm("ecube", topology))
        algorithm = table.algorithm
        rows = {}
        # Intern well past _INITIAL_ROWS=256 to force row growth.
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                state = algorithm.new_state(src, dst)
                rows[(src, dst)] = table.row_for(src, dst, state)
        for (src, dst), row in rows.items():
            state = algorithm.new_state(src, dst)
            assert table.row_for(src, dst, state) == row
            choices = algorithm.candidates_cached(state, src, dst)
            assert int(table.count[row]) == len(choices)


class TestGeometricGaps:
    def test_support_starts_at_one(self):
        gen = np.random.Generator(np.random.PCG64(1))
        gaps = geometric_gaps(20_000, 0.7, gen)
        assert gaps.min() == 1

    def test_mean_matches_geometric(self):
        rate = 0.25
        gen = np.random.Generator(np.random.PCG64(2))
        gaps = geometric_gaps(200_000, rate, gen)
        # Geometric(p) on support {1,2,...} has mean 1/p and variance
        # (1-p)/p^2; 200k draws put the sample mean within ~5 sigma.
        expected = 1.0 / rate
        sigma = math.sqrt((1 - rate) / rate**2 / len(gaps))
        assert abs(gaps.mean() - expected) < 5 * sigma

    def test_rate_one_is_every_cycle(self):
        gen = np.random.Generator(np.random.PCG64(3))
        assert (geometric_gaps(100, 1.0, gen) == 1).all()

    def test_rate_zero_is_never(self):
        gen = np.random.Generator(np.random.PCG64(4))
        gaps = geometric_gaps(10, 0.0, gen)
        assert (gaps > 1 << 50).all()

    def test_batched_arrivals_match_scalar_distribution(self):
        # Same process, different draw order: compare arrival *counts*
        # over a long window between the heap-based process and a
        # one-lane batch engine's own due array (they share the
        # inverse-CDF math).
        from repro.traffic.arrivals import GeometricArrivals
        import random as pyrandom

        cycles, nodes = 4000, 16
        engine = BatchEngine(
            relaxed_config(offered_load=0.5, injection_limit=None), [7]
        )
        rate = engine.injection_rate
        assert engine.topology.num_nodes == nodes and 0.05 < rate < 0.5
        rng = pyrandom.Random(7)
        scalar = GeometricArrivals(nodes, rate)
        scalar.start(0, rng)
        scalar_count = 0
        for cycle in range(cycles):
            scalar_count += len(scalar.pop_due(cycle, rng))
        # Every due entry generates (uniform traffic has no self
        # destinations and nothing is refused), so the lane's message
        # count is its arrival count.
        engine.run_cycles(cycles)
        batched_count = engine.lanes[0].generated_total
        expected = cycles * nodes * rate
        sigma = math.sqrt(cycles * nodes * rate * (1 - rate))
        assert abs(scalar_count - expected) < 6 * sigma
        assert abs(batched_count - expected) < 6 * sigma


class TestSampleDestinations:
    @pytest.fixture
    def pattern(self):
        return UniformTraffic(Torus(4, 2))

    def test_table_rows_are_cumulative_to_one(self, pattern):
        table = pattern.destination_table()
        assert table.shape == (16, 16)
        assert np.allclose(table[:, -1], 1.0)
        assert (np.diff(table, axis=1) >= -1e-12).all()

    def test_draws_follow_the_scalar_distribution(self, pattern):
        table = pattern.destination_table()
        gen = np.random.Generator(np.random.PCG64(11))
        srcs = np.zeros(60_000, dtype=np.intp)
        dsts = sample_destinations(table, srcs, gen)
        assert (dsts >= 0).all()
        support = pattern.destination_distribution(0)
        counts = np.bincount(dsts, minlength=16)
        # Every destination the scalar sampler can produce appears with
        # ~its probability; impossible ones (e.g. self) never do.
        for dst in range(16):
            prob = support.get(dst, 0.0)
            if prob == 0.0:
                assert counts[dst] == 0
            else:
                assert counts[dst] / len(dsts) == pytest.approx(
                    prob, rel=0.15
                )

    def test_inactive_source_row_yields_sentinel(self, pattern):
        table = pattern.destination_table().copy()
        table[3, :] = 0.0  # a source that never generates
        gen = np.random.Generator(np.random.PCG64(12))
        dsts = sample_destinations(
            table, np.array([3, 3, 3], dtype=np.intp), gen
        )
        assert (dsts == -1).all()


class TestNumpyStreams:
    def test_same_root_and_name_reproduce(self):
        a = RngStreams(42).numpy_stream("routing")
        b = RngStreams(42).numpy_stream("routing")
        assert (a.random(8) == b.random(8)).all()

    def test_streams_differ_by_name_and_root(self):
        streams = RngStreams(42)
        a = streams.numpy_stream("routing").random(4)
        b = streams.numpy_stream("traffic").random(4)
        c = RngStreams(43).numpy_stream("routing").random(4)
        assert not (a == b).all()
        assert not (a == c).all()

    def test_epoch_advance_renews_the_stream(self):
        streams = RngStreams(42)
        before = streams.numpy_stream("routing").random(4)
        streams.advance_epoch()
        after = streams.numpy_stream("routing").random(4)
        assert not (before == after).all()

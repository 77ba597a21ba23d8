"""Tests for the deadlock-analysis and VC-usage modules."""

import pytest

from repro.analysis.dependency_graph import (
    build_dependency_graph,
    find_cycle,
    is_acyclic,
)
from repro.analysis.invariants import (
    InvariantViolation,
    check_rank_monotonicity,
    count_minimal_paths,
    enumerate_paths,
)
from repro.analysis.vc_usage import (
    coefficient_of_variation,
    top_class_share,
    usage_fractions,
)
from repro.routing.registry import make_algorithm


class TestDependencyGraphs:
    @pytest.mark.parametrize(
        "name", ["ecube", "nlast", "phop", "nhop", "nbc"]
    )
    def test_acyclic_on_small_torus(self, name, torus4):
        """Deadlock freedom via Dally-Seitz acyclicity for five of the
        six algorithms (2pn needs the reachability argument instead)."""
        graph = build_dependency_graph(make_algorithm(name, torus4))
        assert is_acyclic(graph), f"{name} dependency graph has a cycle"

    @pytest.mark.parametrize("name", ["ecube", "nhop", "nbc"])
    def test_acyclic_on_6_torus(self, name, torus6):
        graph = build_dependency_graph(make_algorithm(name, torus6))
        assert is_acyclic(graph)

    @pytest.mark.parametrize("name", ["ecube", "nlast", "2pn", "phop"])
    def test_acyclic_on_mesh(self, name, mesh4):
        graph = build_dependency_graph(make_algorithm(name, mesh4))
        assert is_acyclic(graph)

    def test_2pn_torus_may_wait_graph_has_cycles(self, torus4):
        """Documented nuance: 2pn's *may-wait* graph is cyclic on tori.
        Its deadlock freedom rests only on the companion report's
        argument that those cycles are unreachable; nothing here shows
        it (a partial deadlock forms at 16x16: ROADMAP item 1)."""
        graph = build_dependency_graph(make_algorithm("2pn", torus4))
        assert find_cycle(graph) is not None

    def test_cycle_detection_on_known_graph(self):
        acyclic = {(0, 0): {(1, 0)}, (1, 0): {(2, 0)}}
        assert is_acyclic(acyclic)
        cyclic = {(0, 0): {(1, 0)}, (1, 0): {(2, 0)}, (2, 0): {(0, 0)}}
        cycle = find_cycle(cyclic)
        assert cycle is not None
        assert set(cycle) == {(0, 0), (1, 0), (2, 0)}

    def test_self_loop_detected(self):
        cycle = find_cycle({(0, 0): {(0, 0)}})
        assert cycle == [(0, 0)]

    def test_disjoint_components(self):
        """The cycle is found even when it lives in a later component."""
        graph = {
            # component 1: an acyclic chain
            (0, 0): {(1, 0)},
            (1, 0): {(2, 0)},
            # component 2: a 2-cycle, unreachable from component 1
            (10, 1): {(11, 1)},
            (11, 1): {(10, 1)},
        }
        cycle = find_cycle(graph)
        assert cycle is not None
        assert set(cycle) == {(10, 1), (11, 1)}
        all_acyclic = {
            (0, 0): {(1, 0)},
            (5, 0): {(6, 0)},
            (8, 0): set(),
        }
        assert is_acyclic(all_acyclic)

    def test_multiple_back_edges_deterministic_witness(self):
        """With several cycles present, the witness is deterministic and
        is a genuine cycle of the graph."""
        graph = {
            (0, 0): {(1, 0), (3, 0)},
            (1, 0): {(2, 0)},
            (2, 0): {(0, 0)},  # back edge 1
            (3, 0): {(4, 0)},
            (4, 0): {(3, 0), (0, 0)},  # back edges 2 and 3
        }
        witness = find_cycle(graph)
        assert witness is not None
        # A genuine cycle: every consecutive hop (and the wrap-around
        # closing hop) is an edge of the graph.
        for position, resource in enumerate(witness):
            nxt = witness[(position + 1) % len(witness)]
            assert nxt in graph[resource]
        # Deterministic: repeated runs over the same graph agree.
        for _ in range(5):
            assert find_cycle(graph) == witness

    def test_witness_excludes_tail_before_cycle(self):
        """A lead-in path to the cycle must not appear in the witness."""
        graph = {
            (9, 0): {(0, 0)},  # tail node, not part of the cycle
            (0, 0): {(1, 0)},
            (1, 0): {(0, 0)},
        }
        witness = find_cycle(graph)
        assert witness is not None
        assert (9, 0) not in witness
        assert set(witness) == {(0, 0), (1, 0)}


class TestRankMonotonicity:
    @pytest.mark.parametrize("name", ["phop", "nhop", "nbc"])
    def test_hop_schemes_satisfy_lemma1(self, name, torus6):
        """Lemma 1: strictly increasing ranks along every reachable hop."""
        scheme = make_algorithm(name, torus6)
        assert check_rank_monotonicity(scheme) > 1000

    def test_violation_detected_for_broken_scheme(self, torus4):
        from repro.routing.positive_hop import PositiveHop

        class Broken(PositiveHop):
            def rank(self, vc_class, node):
                return 0  # constant rank: never increases

        with pytest.raises(InvariantViolation, match="rank did not"):
            check_rank_monotonicity(Broken(torus4))

    def test_class_overflow_detected(self, torus4):
        from repro.routing.positive_hop import PositiveHop

        class Overflowing(PositiveHop):
            @property
            def num_virtual_channels(self):
                return 2  # too few for the diameter

        with pytest.raises(InvariantViolation, match="exceeds"):
            check_rank_monotonicity(Overflowing(torus4))


class TestPathEnumeration:
    def test_count_matches_binomial(self, torus8):
        """(3 right, 2 up) -> C(5,2) = 10 minimal paths."""
        algorithm = make_algorithm("phop", torus8)
        src = torus8.node((0, 0))
        dst = torus8.node((3, 2))
        assert count_minimal_paths(algorithm, src, dst) == 10
        assert len(enumerate_paths(algorithm, src, dst)) == 10

    def test_tie_doubles_paths(self, torus4):
        algorithm = make_algorithm("phop", torus4)
        src = torus4.node((0, 0))
        dst = torus4.node((2, 0))  # half-ring tie: both ways around
        assert len(enumerate_paths(algorithm, src, dst)) == 2


class TestVcUsage:
    def test_fractions_sum_to_one(self):
        fractions = usage_fractions([10, 30, 60])
        assert sum(fractions) == pytest.approx(1.0)
        assert fractions == [0.1, 0.3, 0.6]

    def test_empty_usage(self):
        assert usage_fractions([0, 0]) == [0.0, 0.0]
        assert coefficient_of_variation([0, 0]) == 0.0

    def test_balanced_has_zero_cv(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0

    def test_imbalanced_has_positive_cv(self):
        assert coefficient_of_variation([100, 0, 0]) > 1.0

    def test_top_class_share(self):
        assert top_class_share([1, 3]) == pytest.approx(0.75)
        assert top_class_share([]) == 0.0

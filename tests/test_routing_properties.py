"""Property-based tests over all six routing algorithms."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import (
    check_candidates_minimal,
    count_minimal_paths,
    enumerate_paths,
)
from repro.routing.registry import (
    ALGORITHM_NAMES,
    available_algorithms,
    make_algorithm,
)
from repro.routing.relation import routing_relation
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus

_TORUS = Torus(6, 2)
_ALGORITHMS = {
    name: make_algorithm(name, _TORUS) for name in ALGORITHM_NAMES
}

_pairs = st.tuples(
    st.integers(min_value=0, max_value=_TORUS.num_nodes - 1),
    st.integers(min_value=0, max_value=_TORUS.num_nodes - 1),
).filter(lambda pair: pair[0] != pair[1])


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
@given(pair=_pairs)
@settings(max_examples=30, deadline=None)
def test_every_reachable_hop_is_minimal(name, pair):
    """Minimality (and hence livelock freedom) for all reachable states."""
    src, dst = pair
    assert check_candidates_minimal(_ALGORITHMS[name], src, dst) > 0


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
@given(pair=_pairs)
@settings(max_examples=20, deadline=None)
def test_candidate_classes_within_budget(name, pair):
    """Every offered VC class fits the algorithm's provisioned channels."""
    src, dst = pair
    algorithm = _ALGORITHMS[name]
    budget = algorithm.num_virtual_channels
    stack = [(algorithm.new_state(src, dst), src)]
    seen = set()
    while stack:
        state, node = stack.pop()
        if node == dst:
            continue
        for link, vc_class in algorithm.candidates(state, node, dst):
            assert 0 <= vc_class < budget
            marker = (repr(vars_of(state)), link.dst)
            if marker not in seen:
                seen.add(marker)
                stack.append(
                    (
                        algorithm.advance(
                            copy.copy(state), node, link, vc_class
                        ),
                        link.dst,
                    )
                )


def vars_of(state):
    if state is None or isinstance(state, int):
        return state
    slots = getattr(type(state), "__slots__", ())
    return tuple(getattr(state, s) for s in slots)


@pytest.mark.parametrize("name", ["phop", "nhop", "nbc", "2pn"])
@given(pair=_pairs)
@settings(max_examples=15, deadline=None)
def test_fully_adaptive_algorithms_allow_every_minimal_path(name, pair):
    """The defining property of full adaptivity."""
    src, dst = pair
    algorithm = _ALGORITHMS[name]
    paths = enumerate_paths(algorithm, src, dst)
    assert len(paths) == count_minimal_paths(algorithm, src, dst)
    assert routing_relation(algorithm).path_count(src, dst) == len(paths)


@given(pair=_pairs)
@settings(max_examples=15, deadline=None)
def test_ecube_allows_exactly_one_path(pair):
    src, dst = pair
    assert len(enumerate_paths(_ALGORITHMS["ecube"], src, dst)) == 1
    assert routing_relation(_ALGORITHMS["ecube"]).path_count(src, dst) == 1


@pytest.mark.parametrize(
    "topology", [Torus(4, 2), Mesh(4, 2)], ids=["torus4", "mesh4"]
)
@pytest.mark.parametrize(
    "name", available_algorithms() + ["ecubex2", "2pnx2"]
)
def test_relation_path_count_equals_path_enumeration(name, topology):
    """The battery's exact path count, over the relation's rows, against
    the independent walk that lists every path, for every pair."""
    algorithm = make_algorithm(name, topology)
    relation = routing_relation(algorithm)
    nodes = range(topology.num_nodes)
    for src in nodes:
        for dst in nodes:
            if src != dst:
                assert relation.path_count(src, dst) == len(
                    enumerate_paths(algorithm, src, dst)
                ), (src, dst)


@given(pair=_pairs)
@settings(max_examples=15, deadline=None)
def test_nlast_path_count_between_ecube_and_fully_adaptive(pair):
    """Partially adaptive: at least one path, never more than the minimal
    path count."""
    src, dst = pair
    algorithm = _ALGORITHMS["nlast"]
    paths = enumerate_paths(algorithm, src, dst)
    assert 1 <= len(paths) <= count_minimal_paths(algorithm, src, dst)
    assert routing_relation(algorithm).path_count(src, dst) == len(paths)


@given(pair=_pairs)
@settings(max_examples=15, deadline=None)
def test_path_lengths_equal_distance(pair):
    """All permitted paths of every algorithm have minimal length."""
    src, dst = pair
    expected = _TORUS.distance(src, dst) + 1  # nodes = hops + 1
    for name in ALGORITHM_NAMES:
        for path in enumerate_paths(_ALGORITHMS[name], src, dst):
            assert len(path) == expected
            assert path[0] == src and path[-1] == dst


@given(pair=_pairs)
@settings(max_examples=20, deadline=None)
def test_message_class_is_stable_and_hashable(pair):
    src, dst = pair
    for name in ALGORITHM_NAMES:
        algorithm = _ALGORITHMS[name]
        state = algorithm.new_state(src, dst)
        key_a = algorithm.message_class(src, dst, state)
        key_b = algorithm.message_class(src, dst, state)
        assert key_a == key_b
        hash(key_a)

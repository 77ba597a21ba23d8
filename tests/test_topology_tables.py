"""``Topology`` answers geometry from tables; the subclass is the oracle.

``Torus`` / ``Mesh`` define geometry one dimension at a time
(``dim_distance``, ``minimal_directions``); the base class fills
per-dimension tables from those definitions and serves ``distance``,
``directions``, ``minimal_links``, ``distance_row`` and
``distance_table`` from them.  Pinned here:

* every lookup equals the scalar definition, for all node pairs of
  tori and meshes of radix 2-9 (odd and even) in 1-3 dimensions, and
  returns builtin ``int`` / ``tuple`` (no numpy scalar leaks into
  ``Message.distance``, a ``SimulationResult`` or JSON);
* constructing a paper-scale ``Engine`` or ``BatchEngine`` calls the
  scalar definitions at most ``n_dims * radix**2`` times — the O(N^2)
  scalar walk cannot come back unnoticed.
"""

import json

import numpy as np
import pytest

from repro.experiments.runner import run_batch, run_point
from repro.simulator.batch import BatchEngine
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import Engine
from repro.stats.summary import SimulationResult
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus

SHAPES = [
    pytest.param(cls, radix, n_dims, id=f"{cls.__name__.lower()}:{radix}^{n_dims}")
    for cls in (Torus, Mesh)
    for n_dims in (1, 2, 3)
    for radix in range(2, 10)
]

#: All pairs up to this many nodes; above it (8^3, 9^3) all
#: destinations from every fifth source, which still meets every
#: coordinate value in every dimension on the source side.
ALL_SOURCES_UP_TO = 7**3


def scalar_distance(topology, src, dst):
    return sum(
        topology.dim_distance(src, dst, dim) for dim in range(topology.n_dims)
    )


def scalar_minimal_links(topology, node, dst):
    """The walk ``RoutingAlgorithm.minimal_links`` made before the tables."""
    links = []
    for dim in range(topology.n_dims):
        for direction in topology.minimal_directions(node, dst, dim):
            link = topology.out_link(node, dim, direction)
            if link is not None:
                links.append(link)
    return links


@pytest.mark.parametrize("cls, radix, n_dims", SHAPES)
def test_lookups_equal_scalar_definitions(cls, radix, n_dims):
    topology = cls(radix, n_dims)
    nodes = range(topology.num_nodes)
    stride = 1 if topology.num_nodes <= ALL_SOURCES_UP_TO else 5
    distance_tables = topology.dim_distance_tables
    direction_tables = topology.dim_direction_tables
    table = topology.distance_table()
    assert table.shape == (topology.num_nodes, topology.num_nodes)
    assert np.issubdtype(table.dtype, np.integer)
    assert not table.flags.writeable
    for src in nodes[::stride]:
        src_coords = topology.coords(src)
        row = topology.distance_row(src)
        assert len(row) == topology.num_nodes
        assert topology.distance(src, src) == 0
        assert topology.minimal_links(src, src) == ()
        for dst in nodes:
            dst_coords = topology.coords(dst)
            expected = scalar_distance(topology, src, dst)
            got = topology.distance(src, dst)
            assert got == expected and type(got) is int
            assert row[dst] == expected and type(row[dst]) is int
            assert table[src, dst] == expected
            links = topology.minimal_links(src, dst)
            assert type(links) is tuple
            # Same Link objects, same order.
            assert list(map(id, links)) == list(
                map(id, scalar_minimal_links(topology, src, dst))
            )
            for dim in range(n_dims):
                a, b = src_coords[dim], dst_coords[dim]
                hops = distance_tables[dim][a][b]
                assert hops == topology.dim_distance(src, dst, dim)
                assert type(hops) is int
                directions = topology.minimal_directions(src, dst, dim)
                assert direction_tables[dim][a][b] == directions
                assert topology.directions(src, dst, dim) == directions
                assert type(topology.directions(src, dst, dim)) is tuple


def test_average_distance_reads_the_tables(torus16):
    # The paper's "average diameter" of the 16x16 torus, to the last bit
    # of the pair-by-pair mean it replaces.
    pairs = [
        scalar_distance(torus16, 0, dst) for dst in range(1, torus16.num_nodes)
    ]
    assert torus16.average_distance() == sum(pairs) / len(pairs)
    assert round(torus16.average_distance(), 2) == 8.03
    mesh = Mesh(5, 2)
    total = sum(
        scalar_distance(mesh, src, dst)
        for src in range(mesh.num_nodes)
        for dst in range(mesh.num_nodes)
    )
    assert mesh.average_distance() == total / (
        mesh.num_nodes * (mesh.num_nodes - 1)
    )


# -- the O(N^2) scalar walk stays gone --------------------------------------


def paper_scale_config(**overrides):
    settings = dict(
        radix=16,
        n_dims=2,
        algorithm="nbc",
        traffic="uniform",
        offered_load=0.3,
        message_length=16,
        warmup_cycles=60,
        sample_cycles=60,
        gap_cycles=10,
        min_samples=2,
        max_samples=2,
        seed=11,
    )
    settings.update(overrides)
    return SimulationConfig(**settings)


BATCH = dict(flow_control="conservative", backend="batch", identity="relaxed")


@pytest.fixture
def definition_calls(monkeypatch):
    """Count calls of the per-dimension scalar definitions."""
    calls = {"dim_distance": 0, "minimal_directions": 0}
    for cls in (Torus, Mesh):
        for name in calls:
            original = getattr(cls, name)

            def counted(self, src, dst, dim, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, src, dst, dim)

            monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("topology", ["torus", "mesh"])
def test_paper_scale_construction_fills_each_table_once(
    definition_calls, topology
):
    budget = 2 * 16**2  # n_dims * radix**2
    Engine(paper_scale_config(topology=topology))
    assert 0 < definition_calls["dim_distance"] <= budget
    assert definition_calls["minimal_directions"] <= budget
    definition_calls.update(dim_distance=0, minimal_directions=0)
    BatchEngine(paper_scale_config(topology=topology, **BATCH), [1, 2])
    assert 0 < definition_calls["dim_distance"] <= budget
    assert definition_calls["minimal_directions"] <= budget


# -- no numpy scalars reach results or JSON ---------------------------------


def _numpy_leaks(value, path="result"):
    if isinstance(value, (np.generic, np.ndarray)):
        yield f"{path}: {type(value).__name__}"
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _numpy_leaks(key, f"{path} key {key!r}")
            yield from _numpy_leaks(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _numpy_leaks(item, f"{path}[{index}]")


def test_paper_scale_results_round_trip_json_without_numpy():
    results = [
        run_point(paper_scale_config()),
        run_batch(paper_scale_config(**BATCH), [11])[0],
    ]
    for result in results:
        assert result.messages_delivered > 0
        payload = result.to_json_dict()
        assert list(_numpy_leaks(payload)) == []
        assert SimulationResult.from_json_dict(
            json.loads(json.dumps(payload))
        ) == result


def test_engine_messages_carry_builtin_int_distances():
    engine = Engine(paper_scale_config(offered_load=0.5))
    seen = []
    enqueue = engine._enqueue_route

    def spy(message):
        seen.append(message.distance)
        enqueue(message)

    engine._enqueue_route = spy
    engine.run_cycles(40)
    assert seen and all(type(distance) is int for distance in seen)

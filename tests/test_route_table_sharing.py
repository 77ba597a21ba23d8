"""The shared route table: invisible to results, cheap to carry.

Engines that build their algorithm by name share one
:class:`repro.routing.tables.RouteTable` per (topology, algorithm) per
process.  Two groups of tests:

* **Sharing is speed-only.**  What a point computes does not depend on
  what the process ran before it — a cold table, one pre-grown by other
  loads of the same algorithm, one evicted and re-created, one swapped
  out of the cache under a running engine, one whose dense rows a batch
  stepper numbered first.
* **The properties the gain rests on.**  Entries are invisible to the
  cyclic collector, an object-only process pays for no numpy rows, the
  constructor cache is bounded, private tables stay private, and an
  engine builds no per-VC containers besides the fabric's flat list.
"""

import dataclasses
import gc
import hashlib
import json

import pytest

from repro.experiments.runner import run_batch, run_point
from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.routing.tables import RouteTable, route_table, shared_table
from repro.simulator.batch import BatchEngine
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import Engine
from repro.simulator.reference import ScanEngine
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus

from tests.conftest import tiny_config

#: (topology, extra config) variants every algorithm is run in.
VARIANTS = {
    "torus": dict(topology="torus"),
    "mesh": dict(topology="mesh"),
    "torus-vct": dict(topology="torus", switching="vct"),
    "mesh-sanitize": dict(topology="mesh", sanitize=True),
}


def _point(algorithm, variant, **overrides):
    return tiny_config(
        algorithm=algorithm,
        offered_load=0.5,
        warmup_cycles=120,
        sample_cycles=100,
        gap_cycles=20,
        **{**VARIANTS[variant], **overrides},
    )


def _trajectory(config, between=None):
    """Fingerprint digests every 16 cycles, then the point's result."""
    engine = Engine(config)
    digests = []
    for step in range(24):
        engine.run_cycles(16)
        digests.append(
            hashlib.sha256(
                repr(engine.state_fingerprint()).encode()
            ).hexdigest()
        )
        if between is not None and step == 11:
            between()
    result = run_point(config).to_dict()
    return digests, result


def _evict(config):
    """Run two other algorithms on the point's network: with two tables
    kept, the point's own is gone from the cache afterwards."""
    others = [n for n in ALGORITHM_NAMES if n != config.algorithm][:2]
    for name in others:
        Engine(dataclasses.replace(config, algorithm=name)).run_cycles(40)


def _table_key(config):
    kind = Torus if config.topology == "torus" else Mesh
    return kind, config.radix, config.n_dims, config.algorithm


class TestSharingIsSpeedOnly:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_point_is_independent_of_process_history(
        self, algorithm, variant
    ):
        config = _point(algorithm, variant)
        # (a) first in the process: no shared table exists.
        shared_table.cache_clear()
        first = _trajectory(config)
        assert shared_table.cache_info().currsize == 1
        cold_entries = len(shared_table(*_table_key(config)).entries)
        # (b) after five other loads of its algorithm grew the table.
        shared_table.cache_clear()
        for load in (0.1, 0.3, 0.7, 0.9, 1.0):
            run_point(dataclasses.replace(config, offered_load=load))
        table = shared_table(*_table_key(config))
        # (e-cube on 16 nodes has 240 entries in all: >=, not >.)
        assert len(table.entries) >= cold_entries
        grown = _trajectory(config)
        assert shared_table(*_table_key(config)) is table
        # (c) after other algorithms evicted its table and the point
        # re-created it.
        _evict(config)
        recreated = _trajectory(config)
        assert shared_table(*_table_key(config)) is not table
        assert first == grown == recreated

    @pytest.mark.parametrize("algorithm", ("ecube", "nlast", "nbc"))
    def test_eviction_under_a_running_engine(self, algorithm):
        """An engine keeps the table it was given: evicting it from the
        cache mid-run (and a second engine re-creating it) changes
        nothing for either."""
        config = _point(algorithm, "torus")
        shared_table.cache_clear()
        undisturbed = _trajectory(config)
        shared_table.cache_clear()

        def disturb():
            _evict(config)
            Engine(config).run_cycles(64)

        assert _trajectory(config, between=disturb) == undisturbed

    def test_scan_reference_agrees_on_a_pregrown_table(self):
        """The reference stepper never reads the table, so scan ==
        active on a table other points filled pins the table's contents
        to the per-request reference."""
        config = _point("nbc", "torus")
        for load in (0.2, 0.9):
            run_point(dataclasses.replace(config, offered_load=load))
        active = Engine(config)
        scan = ScanEngine(config)
        for _ in range(12):
            active.run_cycles(32)
            scan.run_cycles(32)
            assert active.state_fingerprint() == scan.state_fingerprint()

    @pytest.mark.parametrize(
        "algorithm, overrides",
        [
            ("nbc", dict(selection_policy="random")),
            ("phop", dict(switching="vct")),
            ("nlast", dict(topology="mesh")),
            ("ecube", {}),
        ],
    )
    def test_batch_lanes_ignore_row_numbers_and_width(
        self, algorithm, overrides
    ):
        """A batch stepper on a table that arrives pre-grown — other row
        numbers, full candidate width from cycle 0, entries an object
        engine interned — reports the same lanes as on a fresh one."""
        config = tiny_config(
            algorithm=algorithm,
            offered_load=0.5,
            flow_control="conservative",
            backend="batch",
            identity="relaxed",
            **overrides,
        )
        seeds = (3, 4)

        def lanes():
            engine = BatchEngine(config, seeds)
            engine.run_cycles(250)
            prints = [
                engine.state_fingerprint(i) for i in range(len(seeds))
            ]
            results = [r.to_dict() for r in run_batch(config, seeds)]
            return prints, results

        shared_table.cache_clear()
        fresh = lanes()
        shared_table.cache_clear()
        # Another load through both engines, in reverse seed order.
        other = dataclasses.replace(config, offered_load=0.9)
        run_point(
            dataclasses.replace(
                other, backend="object", identity="strict"
            )
        )
        run_batch(other, seeds[::-1])
        assert shared_table.cache_info().currsize == 1
        assert lanes() == fresh


    @pytest.mark.parametrize(
        "name", ("nbc-torus-wormhole-random", "nhop-mesh-vct")
    )
    def test_recorded_batch_golden_holds_on_a_pregrown_table(self, name):
        """``relaxed_golden.json`` was recorded with a table per engine;
        it must also come out of a table that other batch steppers — at
        another load, with other seeds — numbered first.  (The golden
        and composition tests themselves now run their second engine on
        the table their first one grew.)"""
        from tests import test_relaxed_golden as golden

        config = SimulationConfig(
            **{**golden._BASE, **golden.CASES[name], "offered_load": 0.8}
        )
        shared_table.cache_clear()
        BatchEngine(config, (5, 6, 7, 8)).run_cycles(300)
        rows = shared_table.cache_info()
        recorded = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
        assert golden.compute(name) == recorded[name]
        # ... and compute() found that table, it did not build another.
        assert shared_table.cache_info().misses == rows.misses


class TestWhoSharesATable:
    def test_named_engines_share_and_both_backends_agree(self):
        config = tiny_config(
            algorithm="2pn", flow_control="conservative"
        )
        one, two = Engine(config), Engine(
            dataclasses.replace(config, offered_load=0.7, seed=9)
        )
        batch = BatchEngine(
            dataclasses.replace(
                config, backend="batch", identity="relaxed"
            ),
            [1],
        )
        assert one._table is two._table is batch._table
        # The table routes with objects of its own.
        assert one._table.algorithm is not one.algorithm
        assert one._table.algorithm.topology is not one.topology

    def test_explicit_instances_get_private_tables(self):
        config = tiny_config(algorithm="phop")
        topology = config.build_topology()
        first = make_algorithm("phop", topology)
        second = make_algorithm("phop", topology)
        named = Engine(config)
        engines = [
            Engine(config, topology=topology, algorithm=first),
            Engine(config, topology=topology, algorithm=second),
        ]
        tables = [engine._table for engine in engines]
        assert tables[0] is not tables[1]
        assert named._table not in tables
        assert [t.algorithm for t in tables] == [first, second]
        batch = BatchEngine(
            tiny_config(
                algorithm="phop", flow_control="conservative",
                backend="batch", identity="relaxed",
            ),
            [1],
            topology=topology,
            algorithm=first,
        )
        assert batch._table not in tables + [named._table]

    def test_lane_multiples_never_share_with_their_base(self):
        base = Engine(tiny_config(algorithm="ecube"))
        lanes = Engine(tiny_config(algorithm="ecubex2"))
        assert base._table is not lanes._table
        assert lanes._table.algorithm.num_virtual_channels == 4

    def test_networks_never_share(self):
        tables = {
            id(Engine(tiny_config(**shape))._table)
            for shape in (
                dict(radix=4),
                dict(radix=6),
                dict(radix=4, topology="mesh"),
                dict(radix=4, n_dims=3),
            )
        }
        assert len(tables) == 4

    def test_unrebuildable_topologies_get_private_tables(self):
        """Only a stock Torus/Mesh can be rebuilt from its shape."""

        class Custom(Torus):
            pass

        topology = Custom(4, 2)
        engine = Engine(tiny_config(), topology=topology)
        assert engine._table.algorithm is engine.algorithm
        assert route_table(engine.algorithm, "ecube") is not engine._table

    def test_constructor_cache_stays_within_its_bound(self):
        shared_table.cache_clear()
        held = []
        for algorithm in ALGORITHM_NAMES:
            held.append(Engine(tiny_config(algorithm=algorithm)))
            info = shared_table.cache_info()
            assert info.currsize <= info.maxsize == 2
        # Evicted tables live on with the engines that hold them.
        assert len({id(engine._table) for engine in held}) == 6


class TestWhatTheGainRestsOn:
    def test_entries_are_invisible_to_the_collector(self):
        """Interning leaves no per-entry object for the cyclic collector
        to walk.  Values are int tuples, untracked on their first pass;
        keys hold one inner tuple (the state key) and follow on their
        second — so what a collection still finds tracked is the keys of
        the last young window, a constant, whatever the table's size."""
        config = SimulationConfig(
            radix=16, algorithm="phop", offered_load=0.08, seed=3
        )
        topology = config.build_topology()
        engine = Engine(
            config, topology, algorithm=config.build_algorithm(topology)
        )
        for node in range(topology.num_nodes):
            # Fill the geometry memo now: it is per node, not per entry.
            topology.minimal_links(node, (node + 1) % topology.num_nodes)
        table = engine._table
        engine.run_cycles(60)
        in_flight = engine.in_flight
        gc.collect()
        objects, entries = len(gc.get_objects()), len(table.entries)
        while len(table.entries) < entries + 10_000:
            engine.run_cycles(100)
        # Compare like with like: a moment with as many worms in flight.
        while engine.in_flight > in_flight:
            engine.run_cycles(1)
        interned = len(table.entries) - entries
        gc.collect()
        grown = len(gc.get_objects()) - objects
        assert interned >= 10_000
        assert grown <= gc.get_threshold()[0] + 50
        assert not any(map(gc.is_tracked, table.entries.values()))
        gc.collect()
        assert not any(map(gc.is_tracked, table.entries))
        assert len(gc.get_objects()) - objects <= 50

    def test_object_engines_never_allocate_the_dense_rows(self):
        config = _point("nbc", "torus")
        shared_table.cache_clear()
        run_point(config)
        table = shared_table(*_table_key(config))
        assert table.entries
        assert table.size == 0 and not table.rep_state
        for column in (
            table.cand_flat, table.cand_ch, table.cand_dst,
            table.term, table.succ, table.count,
        ):
            assert column.shape[0] == 0 and column.nbytes == 0

    def test_dense_rows_are_filled_from_the_entries(self):
        """A row is its entry, laid out: one candidates() call serves
        both engines."""
        table = RouteTable(make_algorithm("nbc", Torus(4, 2)))
        algorithm = table.algorithm
        calls = []
        candidates = algorithm.candidates
        algorithm.candidates = lambda *args: (  # type: ignore
            calls.append(args[1:]) or candidates(*args)
        )
        state = algorithm.new_state(0, 5)
        entry = (0, 5, algorithm.state_key(state))
        flats = table.intern(entry, state)
        row = table.row_for(0, 5, algorithm.new_state(0, 5))
        assert calls == [(0, 5)]
        n = int(table.count[row])
        assert tuple(table.cand_flat[row, :n]) == flats
        # ... and the other way round.
        other = table.row_for(1, 5, algorithm.new_state(1, 5))
        key = (1, 5, algorithm.state_key(algorithm.new_state(1, 5)))
        assert table.entries[key] == tuple(
            table.cand_flat[other, : int(table.count[other])]
        )
        assert len(calls) == 2

    def test_table_keeps_no_live_message_state(self):
        """Hop schemes mutate route_state in place; an entry interned
        from a message's state must survive the message moving on."""
        engine = Engine(_point("phop", "torus"))
        engine.run_cycles(200)
        snapshot = dict(engine._table.entries)
        engine.run_cycles(200)
        for entry, flats in snapshot.items():
            assert engine._table.entries[entry] == flats
        algorithm = engine.algorithm
        num_vcs = engine.fabric.num_vcs
        for (node, dst, key), flats in snapshot.items():
            state = algorithm.new_state(node, dst)
            state.vc_class = key[0]
            assert list(flats) == [
                link.index * num_vcs + vc_class
                for link, vc_class in algorithm.candidates(state, node, dst)
            ]

    def test_engine_construction_builds_no_per_vc_containers(self):
        """16x16 mesh, phop: ~30 000 VCs.  Besides the VC objects, an
        engine may add containers per channel, never per VC — the flat
        list is the only thing that grows with the VC count."""
        config = SimulationConfig(
            radix=16, topology="mesh", algorithm="phop"
        )
        Engine(config)  # geometry tables, shared route table: built
        gc.collect()
        before = {id(obj) for obj in gc.get_objects()}
        engine = Engine(config)
        containers = [
            obj
            for obj in gc.get_objects()
            if id(obj) not in before
            and isinstance(obj, (tuple, list, dict, set))
        ]
        vcs = len(engine.fabric.vcs)
        channels = len(engine.fabric.channels)
        assert vcs == channels * engine.fabric.num_vcs > 25_000
        # Per channel: its vcs list and its owned_idx list.
        assert len(containers) < 2 * channels + 500
        assert sum(len(obj) == vcs for obj in containers) == 1

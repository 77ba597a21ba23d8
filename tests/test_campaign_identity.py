"""Store addresses are pinned: across commits, and against a reference.

``repro.campaigns.identity`` derives a point's signature, keys and
stored config from a shallow field walk with the campaign-shared part
memoised.  Three things hold it to the addresses every existing store
file was written under:

* a golden fixture (``tests/data/identity_golden.json``) computed by the
  ``dataclasses.asdict`` implementation this one replaced, and a store
  file that implementation wrote (``tests/data/store_parent.jsonl``);
* that implementation itself, kept here as the reference a hypothesis
  property compares against;
* memo-safety cases: the memo is keyed on typed values, never on the
  config instance, and is bounded.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import warnings
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import identity
from repro.campaigns.identity import (
    SIGNATURE_EXCLUDED,
    campaign_signature,
    config_key,
    config_record_dict,
    identify,
    point_key,
    result_key,
)
from repro.campaigns.store import ResultStore
from repro.experiments.parallel import _batch_groups
from repro.experiments.runner import run_point
from repro.simulator.config import SimulationConfig
from tests.conftest import tiny_config

DATA = os.path.join(os.path.dirname(__file__), "data")

with open(os.path.join(DATA, "identity_golden.json")) as _stream:
    GOLDEN = json.load(_stream)


#: Address components that left ``SimulationConfig``, with the default
#: ``identity`` spells literally for every config.
RETIRED = {"sanitize": False, "scheduler": "active"}


def golden_config(case):
    """The config of one golden case, and the retired components it was
    filed under.  The fixture predates the fields' removal: where it
    names one, the value is an address component the dataclass no
    longer carries."""
    fields = dict(case["config"])
    retired = {name: fields.pop(name, RETIRED[name]) for name in RETIRED}
    return SimulationConfig(**fields), retired


def reference(config):
    """The derivation every store file so far was addressed by."""
    shared = {**dataclasses.asdict(config), **RETIRED}
    for name in SIGNATURE_EXCLUDED:
        shared.pop(name, None)
    blob = json.dumps(shared, sort_keys=True, default=repr)
    signature = hashlib.sha256(blob.encode()).hexdigest()[:16]
    record = {**dataclasses.asdict(config), **RETIRED}
    record.pop("backend", None)
    stored = json.loads(json.dumps(record, sort_keys=True, default=repr))
    point = point_key(config)
    return signature, point, result_key(signature, point), stored


def assert_matches_reference(config):
    expected = reference(config)
    derived = identify(config)
    assert derived == expected
    # Same bytes on disk, not just equal dicts: key order included.
    assert json.dumps(derived[3]) == json.dumps(expected[3])
    assert campaign_signature(config) == expected[0]
    assert config_key(config) == expected[2]
    assert config_record_dict(config) == expected[3]


class TestGoldenPins:
    @pytest.mark.parametrize(
        "case", GOLDEN, ids=[str(index) for index in range(len(GOLDEN))]
    )
    def test_addresses_match_the_parent_commit(self, case):
        config, retired = golden_config(case)
        signature, point, key, stored = identify(config)
        if retired != RETIRED:
            # Filed under another value of a retired field (``scheduler``
            # or ``sanitize``): no config spells it any more, so this
            # address is out of reach — and differs by that one
            # component only.
            assert sum(retired[n] != RETIRED[n] for n in RETIRED) == 1
            assert point == case["point_key"]
            assert (signature, key) != (
                case["campaign_signature"], case["result_key"]
            )
            assert {**stored, **retired} == case["config_record_dict"]
            return
        assert signature == case["campaign_signature"]
        assert point == case["point_key"]
        assert key == case["result_key"]
        assert stored == case["config_record_dict"]
        assert list(stored) == sorted(stored)

    def test_fixture_covers_the_shapes_that_matter(self):
        configs = [case["config"] for case in GOLDEN]
        assert len(configs) >= 12
        assert any(c.get("identity") == "relaxed" for c in configs)
        assert any(c.get("topology") == "mesh" for c in configs)
        assert any(c.get("switching") == "vct" for c in configs)
        assert any(c.get("vc_buffer_depth") == 4 for c in configs)
        assert any(
            "vc_buffer_depth" in c and c["vc_buffer_depth"] is None
            for c in configs
        )
        assert any(
            isinstance(value, dict)
            for c in configs
            for value in c.get("traffic_options", {}).values()
        )
        assert any(
            isinstance(value, list)
            for c in configs
            for value in c.get("obs_options", {}).values()
        )
        gaps = [c.get("gap_cycles") for c in configs]
        assert any(type(gap) is float for gap in gaps)

    def test_parent_written_store_is_served_in_full(self, tmp_path):
        """A file the asdict implementation wrote: every record hits."""
        path = tmp_path / "store.jsonl"
        shutil.copy(os.path.join(DATA, "store_parent.jsonl"), path)
        before = path.read_bytes()
        configs = [golden_config(GOLDEN[i])[0] for i in (1, 2, 3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = ResultStore(str(path))
            results = [store.get(config) for config in configs]
        assert len(store) == 3
        assert all(result is not None for result in results)
        assert [r.algorithm for r in results] == ["ecube", "nbc", "nlast"]
        assert path.read_bytes() == before  # opened, not rewritten

    def test_store_written_now_reads_as_the_parent_wrote_it(self, tmp_path):
        """...and vice versa: the same records, put through this code,
        make the parent's lines but for the ``recorded_at`` stamp the
        parent added and ``put`` no longer writes, so the parent commit
        serves them as it serves its own."""
        parent_path = os.path.join(DATA, "store_parent.jsonl")
        parent = ResultStore(parent_path)
        configs = [golden_config(GOLDEN[i])[0] for i in (1, 2, 3)]
        path = tmp_path / "store.jsonl"
        with ResultStore(str(path)) as store:
            for config in configs:
                assert store.put(config, parent.get(config))

        def unstamped(text):
            records = [json.loads(line) for line in text.splitlines()]
            for record in records:
                del record["recorded_at"]
            return "".join(json.dumps(record) + "\n" for record in records)

        with open(parent_path) as stream:
            assert path.read_text() == unstamped(stream.read())

    def test_record_filed_under_scan_is_out_of_reach_not_wrong(
        self, tmp_path
    ):
        """``store_parent_strict_batch.jsonl`` is golden case 12 as an
        earlier commit's strict batch stepper simulated and filed it
        (``backend="batch"``, default identity, ``scheduler="scan"``).
        Neither spelling constructs any more.  The file still opens
        clean; the one config that could ask for the record — the object
        config — is addressed under ``"active"`` and misses; and the
        object engine simulates the very numbers the record holds, which
        is why nothing is lost by re-simulating."""
        path = tmp_path / "store.jsonl"
        shutil.copy(
            os.path.join(DATA, "store_parent_strict_batch.jsonl"), path
        )
        config, retired = golden_config(GOLDEN[12])
        assert retired["scheduler"] == "scan"
        assert (config.backend, config.identity) == ("object", "strict")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = ResultStore(str(path))
            served = store.get(config)
        assert len(store) == 1 and served is None
        with open(path) as stream:
            stored = json.loads(stream.readline())["result"]
        fresh = json.loads(json.dumps(run_point(config).to_json_dict()))
        del fresh["wall_seconds"], stored["wall_seconds"]
        assert fresh == stored


# -- the asdict reference, property-tested ---------------------------------

#: Values Python equates or json spells specially: each must key apart
#: from its look-alikes and be written as the reference writes it.
_edges = st.sampled_from(
    [0.0, -0.0, 80, 80.0, True, 1, False, 0, 1e16, 5e-324, "", "{}"]
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    _edges,
)
#: Values json cannot write: both derivations store their repr.
_opaque = st.sampled_from(
    [Decimal("1.5"), frozenset({3}), 2 + 1j, b"raw", {7}]
)
_values = st.recursive(
    _scalars | _opaque,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
        st.dictionaries(st.integers(0, 99), inner, max_size=3),
    ),
    max_leaves=8,
)
_options = st.dictionaries(st.text(max_size=5), _values, max_size=3)


@st.composite
def configs(draw):
    batch = draw(st.booleans())
    return SimulationConfig(
        radix=draw(st.sampled_from([4, 8, 16])),
        n_dims=draw(st.sampled_from([1, 2, 3])),
        topology=draw(st.sampled_from(["torus", "mesh"])),
        algorithm=draw(st.sampled_from(["ecube", "nbc", "2pn"])),
        switching=draw(st.sampled_from(["wormhole", "vct"])),
        flow_control="conservative" if batch else draw(
            st.sampled_from(["ideal", "conservative"])
        ),
        backend="batch" if batch else "object",
        identity="relaxed" if batch else "strict",
        vc_buffer_depth=draw(st.sampled_from([None, 1, 4, 32])),
        injection_limit=draw(st.sampled_from([None, 1, 2, True])),
        traffic=draw(st.sampled_from(["uniform", "hotspot"])),
        traffic_options=draw(_options),
        offered_load=draw(st.one_of(
            st.floats(0, 2, allow_nan=False), st.integers(0, 2),
            st.sampled_from([0.0, -0.0, 1e16, True]),
        )),
        seed=draw(st.integers(0, 2**40)),
        gap_cycles=draw(st.sampled_from([0, 80, 80.0, 300, True, 1e16])),
        relative_error=draw(st.one_of(
            st.sampled_from([0.05, 0.1, 0.5, 5e-324]),
            st.floats(5e-324, 2.2e-308),  # subnormal
        )),
        obs=False if batch else draw(st.sampled_from([False, True, 1])),
        obs_options=draw(_options),
    )


class TestAgainstAsdictReference:
    @settings(max_examples=300, deadline=None)
    @given(config=configs())
    def test_identity_equals_the_asdict_derivation(self, config):
        assert_matches_reference(config)

    @settings(max_examples=50, deadline=None)
    @given(first=configs(), second=configs())
    def test_one_memo_serves_interleaved_campaigns(self, first, second):
        """Whatever the memo holds from one config, the next is right."""
        for config in (first, second, first):
            assert_matches_reference(config)


# -- memo safety -------------------------------------------------------------


@pytest.fixture
def memo():
    """The shared-part memo, emptied before and after the test."""
    cache = identity._derive_shared
    cache.cache_clear()
    yield cache
    cache.cache_clear()


class TestMemoSafety:
    def test_repeat_lookups_hit_the_memo(self, memo):
        for seed in range(50):
            identify(tiny_config(seed=seed, offered_load=seed / 100))
        info = memo.cache_info()
        assert (info.misses, info.hits) == (1, 49)

    def test_mutating_a_config_after_a_lookup_changes_its_key(self, memo):
        config = tiny_config()
        before = identify(config)
        config.gap_cycles = 99
        after = identify(config)
        assert after[0] != before[0] and after[2] != before[2]
        assert after[3]["gap_cycles"] == 99
        assert_matches_reference(config)

    def test_mutating_an_option_in_place_changes_the_key(self, memo):
        config = tiny_config(traffic_options={"nested": {"hot": [1, 2]}})
        before = identify(config)
        config.traffic_options["nested"]["hot"].append(3)
        after = identify(config)
        assert after[0] != before[0]
        assert after[3]["traffic_options"] == {"nested": {"hot": [1, 2, 3]}}
        assert_matches_reference(config)

    @pytest.mark.parametrize(
        "field, one, other",
        [
            ("gap_cycles", 80, 80.0),
            ("gap_cycles", 1, True),
            ("obs", True, 1),
            ("injection_limit", 1, True),
            ("traffic_options", {"k": 0.0}, {"k": -0.0}),
            ("traffic_options", {"k": 1}, {"k": True}),
            ("traffic_options", {"k": "{}"}, {"k": {}}),
            ("traffic", "uniform", "hotspot"),
        ],
    )
    @pytest.mark.parametrize("swap", [False, True])
    def test_equal_values_json_writes_apart_do_not_alias(
        self, memo, field, one, other, swap
    ):
        """80 == 80.0 and True == 1 in Python; not in a store file."""
        if swap:
            one, other = other, one
        first = tiny_config(**{field: one})
        second = tiny_config(**{field: other})
        assert identify(first)[0] != identify(second)[0]
        assert memo.cache_info().currsize == 2
        assert_matches_reference(first)
        assert_matches_reference(second)

    def test_a_str_never_aliases_the_json_text_of_a_container(self, memo):
        """Containers are keyed by their JSON text, strs by themselves."""
        text = tiny_config(traffic="{}")
        options = tiny_config(traffic="uniform", traffic_options={})
        assert identify(text)[0] != identify(options)[0]
        assert_matches_reference(text)
        assert_matches_reference(options)

    def test_unhashable_option_values_are_keyed_by_their_json(self, memo):
        """Sets, lists of dicts, objects: no hashable form is needed."""
        config = tiny_config(
            traffic_options={"nodes": {5}, "path": [{"a": [1]}, (2, 3)]},
            obs_options={"sink": Decimal("2.5")},
        )
        assert_matches_reference(config)
        assert_matches_reference(config)
        assert memo.cache_info().currsize == 1

    def test_the_stored_config_is_the_callers_own(self, memo):
        """Editing a returned dict reaches neither the memo nor the config."""
        config = tiny_config(traffic_options={"hot": [1, 2]})
        stored = identify(config)[3]
        stored["traffic_options"]["hot"].append(3)
        stored["radix"] = 99
        assert config.traffic_options == {"hot": [1, 2]}
        assert_matches_reference(config)

    def test_empty_options_in_the_stored_config_are_fresh_too(self, memo):
        """A campaign's usual shape: both options dicts empty.  Filling
        them in one returned dict reaches neither the memo, nor the
        config, nor the dict another call returned."""
        config = tiny_config()
        first = identify(config)[3]
        second = identify(config)[3]
        for name in ("traffic_options", "obs_options"):
            assert first[name] == {} and first[name] is not second[name]
            first[name]["leak"] = [1]
        assert (config.traffic_options, config.obs_options) == ({}, {})
        assert identify(config)[3] == second
        assert memo.cache_info().currsize == 1
        assert_matches_reference(config)

    def test_no_container_is_shared_with_the_memo_or_another_call(
        self, memo
    ):
        config = tiny_config(
            traffic_options={"hot": [1, {"deep": []}], "none": {}},
            obs_options={"vectors": [[]]},
        )
        first, second = identify(config)[3], identify(config)[3]
        template = identity._shared(config)[1]

        def containers(value):
            if isinstance(value, (dict, list)):
                yield value
                items = value.values() if isinstance(value, dict) else value
                for item in items:
                    yield from containers(item)

        seen = [
            {id(c) for c in containers(stored)}
            for stored in (first, second, template)
        ]
        assert not seen[0] & seen[1]
        assert not (seen[0] | seen[1]) & seen[2]

    def test_a_memo_hit_neither_parses_nor_encodes(self, memo, monkeypatch):
        """After a campaign's first point, a lookup is a memo probe: no
        ``json.loads``, and no encoder for the values every campaign
        holds (floats, bools, empty options)."""
        spec = dict(gap_cycles=80.0, obs=True, relative_error=0.1)
        identify(tiny_config(**spec))

        def boom(*args, **kwargs):
            raise AssertionError("JSON round trip on a memo hit")

        monkeypatch.setattr(json, "loads", boom)
        monkeypatch.setattr(identity, "_to_json", boom)
        for seed, load in ((1, 0.3), (2, 0.75), (3, 1)):
            identify(tiny_config(seed=seed, offered_load=load, **spec))
        assert memo.cache_info().hits == 3

    def test_the_memo_is_bounded(self, memo):
        """A many-signature expansion re-derives; it does not accumulate."""
        limit = memo.cache_info().maxsize
        assert limit is not None and limit <= 1024
        for index in range(4 * limit):
            identify(tiny_config(warmup_cycles=1000 + index))
        assert memo.cache_info().currsize <= limit
        assert_matches_reference(tiny_config(warmup_cycles=1000))


class TestBatchGrouping:
    def test_groups_are_those_of_every_field_but_the_seed(self):
        """The grouping key rides on the signature; the old one spelled
        out asdict + json.dumps per point.  Same groups, same order."""
        base = tiny_config(
            flow_control="conservative", backend="batch", identity="relaxed"
        )
        variants = [
            base,
            dataclasses.replace(base, offered_load=0.4),
            dataclasses.replace(base, algorithm="nbc"),
            dataclasses.replace(base, gap_cycles=80),
            dataclasses.replace(base, gap_cycles=80.0),
            dataclasses.replace(base, traffic_options={"k": [1]}),
            dataclasses.replace(base, mux_policy="highest_class"),
        ]
        points = [
            dataclasses.replace(variant, seed=seed)
            for seed in (1, 2, 3)
            for variant in variants
        ]
        pending = [index for index in range(len(points)) if index != 7]

        def reference_groups(batch_size):
            by_key = {}
            for index in pending:
                shared = dataclasses.asdict(points[index])
                shared.pop("seed", None)
                key = json.dumps(shared, sort_keys=True, default=repr)
                by_key.setdefault(key, []).append(index)
            return [
                members[start:start + batch_size]
                for members in by_key.values()
                for start in range(0, len(members), batch_size)
            ]

        for batch_size in (1, 2, 32):
            assert _batch_groups(points, pending, batch_size) == (
                reference_groups(batch_size)
            )
        assert len(reference_groups(32)) == len(variants)

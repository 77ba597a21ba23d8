"""What an open store holds per record, and that it loses nothing.

A :class:`ResultStore` keeps each record as its point fields, its result
values (a flat nested dict as the tuple of its values) and, on a line
that carries one, its ``recorded_at`` stamp, beside one frame per
campaign and result shape that holds the rest, key orders included.
What must survive that:

* frames are shared only between lines of the same JSON text — configs
  Python calls equal but JSON spells apart (``80`` / ``80.0``, ``true`` /
  ``1``, ``0.0`` / ``-0.0``) keep their own;
* every accepted line — ones with the ``recorded_at`` stamp earlier
  writers added, ones without it, ones with a top-level key this code
  never writes, forged ones, ones whose nested result dicts differ in
  keys, value spelling (``-0.0`` / ``0.0``, ``1`` / ``1.0``) or shape —
  is written back by ``gc`` byte for byte, and each point is served
  only to its own config;
* equal key tuples and equal strings are one object per store, whether
  read at open or written by ``put`` — numbers never are;
* the resident cost per record stays a fraction of the parsed line's.
"""

import dataclasses
import gc
import json
import tracemalloc
import warnings

import pytest

from repro.campaigns.identity import config_record_dict
from repro.campaigns.store import ResultStore, StoreWarning
from repro.experiments.runner import run_point
from tests.conftest import tiny_config

#: Campaigns that differ only in values Python equates and JSON does not.
CAMPAIGNS = {
    "gap 80": dict(gap_cycles=80, traffic_options={"weighted": True}),
    "gap 80.0": dict(gap_cycles=80.0, traffic_options={"weighted": True}),
    "option 1": dict(gap_cycles=80, traffic_options={"weighted": 1}),
}
SEEDS = (1, 2, 3, 4)


@pytest.fixture(scope="module")
def result():
    return run_point(tiny_config())


def _config(campaign, seed):
    return tiny_config(seed=seed, **CAMPAIGNS[campaign])


def _rewrite_lines(path, edit):
    """Apply *edit* to the list of parsed records in *path*."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.fixture
def mixed_store(tmp_path, result):
    """A store file of every campaign x seed, each with its own result
    notes, then edited in place into the shapes other writers leave."""
    path = tmp_path / "store.jsonl"
    with ResultStore(str(path)) as store:
        for campaign in CAMPAIGNS:
            for seed in SEEDS:
                note = f"{campaign} seed {seed}"
                store.put(
                    _config(campaign, seed),
                    dataclasses.replace(result, notes=note),
                )

    def edit(records):
        # Every line but the first carries the stamp stores written
        # before ``put`` stopped writing one hold: the first is spelled
        # as a fresh put writes it, the rest as an older store's lines.
        for index, record in enumerate(records[1:]):
            record["recorded_at"] = 1700000000.25 + index
        gap80, gap80f, _ = (records[i:i + 4] for i in range(0, 12, 4))
        # Extra top-level keys, first and last; within one campaign,
        # 0.0 on one line and -0.0 on the next.
        records[1] = {"origin": {"writer": "elsewhere"}, **gap80[1]}
        gap80f[0]["offset"] = 0.0
        gap80f[1]["offset"] = -0.0
        # Another writer's spelling of a campaign's stored config, under
        # its signature and before an unedited line of it: a nested
        # ``1`` for ``true``, an int gap for a float one.
        gap80[2]["config"]["traffic_options"]["weighted"] = 1
        gap80f[2]["config"]["gap_cycles"] = 80
        # A forged line: its key, point text and result are seed 4's,
        # its stored config seed 3's.
        records[-1]["config"] = config_record_dict(_config("option 1", 3))

    _rewrite_lines(path, edit)
    return path


class TestCompactForm:
    def test_the_file_opens_without_a_warning(self, mixed_store):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = ResultStore(str(mixed_store))
        assert len(store) == len(CAMPAIGNS) * len(SEEDS)

    def test_each_point_is_served_only_to_its_own_config(self, mixed_store):
        store = ResultStore(str(mixed_store))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for campaign in CAMPAIGNS:
                for seed in SEEDS:
                    if (campaign, seed) == ("option 1", 4):
                        continue
                    served = store.get(_config(campaign, seed))
                    assert served.notes == f"{campaign} seed {seed}"
            assert store.get(_config("gap 80", 5)) is None  # never stored
        with pytest.warns(StoreWarning, match="collision"):
            assert store.get(_config("option 1", 4)) is None

    def test_gc_writes_every_line_back_byte_for_byte(self, mixed_store):
        before = mixed_store.read_bytes()
        store = ResultStore(str(mixed_store))
        stats = store.gc()
        assert mixed_store.read_bytes() == before
        assert stats["lines_before"] == stats["lines_after"] == 12
        assert stats["dropped_lines"] == 0

    def test_put_keeps_writing_after_a_mixed_open(self, mixed_store, result):
        """A put beside loaded records writes the line a fresh store
        writes, and a later gc keeps both kinds byte for byte."""
        store = ResultStore(str(mixed_store))
        assert store.put(_config("gap 80.0", 5), result)
        assert not store.put(_config("gap 80.0", 1), result)
        store.close()
        before = mixed_store.read_bytes()
        last = json.loads(before.splitlines()[-1])
        assert last["config"]["gap_cycles"] == 80.0
        assert type(last["config"]["gap_cycles"]) is float
        ResultStore(str(mixed_store)).gc()
        assert mixed_store.read_bytes() == before


#: Results of one campaign that differ in their nested dicts' keys,
#: value spelling and shape (a record holds an empty nested dict, and one
#: that holds a dict, as parsed).
NESTED = {
    "hops 1-4": {},
    "hops 2-3": dict(hop_class_latency={2: 5.5, 3: 7.25}),
    "hops 3-4": dict(hop_class_latency={3: 5.5, 4: 7.25}),
    "no hops": dict(hop_class_latency={}),
    "zero": dict(latency_percentiles={50: 0.0, 95: 1, 99: 2.0}),
    "minus zero": dict(latency_percentiles={50: -0.0, 95: 1.0, 99: 2.0}),
    "observed": dict(obs_metrics={"v": 1, "spans": {"run": [1, 2.0]}}),
}


def _nested_results(result):
    return {
        name: dataclasses.replace(result, notes=f"note {index % 2}", **change)
        for index, (name, change) in enumerate(NESTED.items())
    }


def _put_nested(path, result):
    """A store that was written by ``put`` alone, one point per entry of
    :data:`NESTED`, and the (config, result) pairs it was given."""
    pairs = [
        (tiny_config(seed=seed), served)
        for seed, served in enumerate(_nested_results(result).values())
    ]
    store = ResultStore(str(path))
    for config, served in pairs:
        assert store.put(config, served)
    return store, pairs


def _held_objects(store):
    """Every str and every key tuple a store's records hold, through
    their frames."""
    found = []
    for record in store._records.values():
        frame = record.frame
        found.append(record.algorithm)
        found.append(frame.result_keys)
        found.extend(frame.result_keys)
        for index in frame.strs:
            found.append(record.result[index])
        for _, keys in frame.packed:
            found.append(keys)
            found.extend(keys)
    return found


class TestNestedResults:
    def test_every_result_is_served_as_it_was_put(self, tmp_path, result):
        store, pairs = _put_nested(tmp_path / "store.jsonl", result)
        for config, served in pairs:
            assert store.get(config) == served
        store.close()
        reopened = ResultStore(str(tmp_path / "store.jsonl"))
        for config, served in pairs:
            assert reopened.get(config) == served

    def test_puts_whose_hop_classes_differ_keep_their_own_keys(
        self, tmp_path, result
    ):
        """The held frame of the last put must not serve a result whose
        nested keys differ: two puts of one campaign, back to back."""
        path = tmp_path / "store.jsonl"
        results = _nested_results(result)
        store = ResultStore(str(path))
        first, second = results["hops 2-3"], results["hops 3-4"]
        store.put(tiny_config(seed=1), first)
        store.put(tiny_config(seed=2), second)
        assert store.get(tiny_config(seed=1)) == first
        assert store.get(tiny_config(seed=2)) == second
        store.close()
        written = path.read_bytes()
        store.gc()  # spelled from what the puts left in memory
        assert path.read_bytes() == written
        assert [
            json.loads(line)["result"]["hop_class_latency"]
            for line in written.splitlines()
        ] == [{"2": 5.5, "3": 7.25}, {"3": 5.5, "4": 7.25}]

    def test_gc_writes_nested_results_back_byte_for_byte(
        self, tmp_path, result
    ):
        path = tmp_path / "store.jsonl"
        store, _ = _put_nested(path, result)
        store.close()
        written = path.read_bytes()
        lines = [json.loads(line)["result"] for line in written.splitlines()]
        assert [repr(r["latency_percentiles"]["50"]) for r in lines[4:6]] == [
            "0.0", "-0.0"
        ]
        assert lines[4]["latency_percentiles"]["95"] == 1
        assert type(lines[4]["latency_percentiles"]["95"]) is int
        store.gc()
        assert path.read_bytes() == written
        ResultStore(str(path)).gc()
        assert path.read_bytes() == written

    def test_non_str_keys_are_held_as_json_spells_them(
        self, tmp_path, result
    ):
        """Non-str keys are held as the text JSON wrote for them, so a
        put-only store serves what a reopened one does."""
        path = tmp_path / "store.jsonl"
        observed = dataclasses.replace(
            result, obs_metrics={0.5: 1, -0.0: 2.0, True: None}
        )
        store = ResultStore(str(path))
        store.put(tiny_config(seed=1), observed)
        spelled = {"0.5": 1, "-0.0": 2.0, "true": None}
        assert store.get(tiny_config(seed=1)).obs_metrics == spelled
        written = path.read_bytes()
        store.gc()
        assert path.read_bytes() == written
        reopened = ResultStore(str(path))
        assert reopened.get(tiny_config(seed=1)).obs_metrics == spelled

    @pytest.mark.parametrize("how", ["put", "reopened"])
    def test_equal_keys_and_strings_are_one_object(
        self, tmp_path, result, how
    ):
        path = tmp_path / "store.jsonl"
        store, _ = _put_nested(path, result)
        store.close()
        if how == "reopened":
            store = ResultStore(str(path))
        held = _held_objects(store)
        by_value = {}
        for value in held:
            by_value.setdefault(value, set()).add(id(value))
        assert by_value and all(len(ids) == 1 for ids in by_value.values())
        # Both nested dicts of the first point, and the others' notes.
        assert ("2", "3") in by_value and "note 1" in by_value
        # One frame per distinct key set: the nested values of "zero" and
        # "minus zero" are their records' own, so they share the first's.
        frames = {id(record.frame) for record in store._records.values()}
        assert len(frames) == len(NESTED) - 2

    def test_numbers_are_each_records_own(self, tmp_path, result):
        """Equal floats are never merged: ``0.0 == -0.0``."""
        path = tmp_path / "store.jsonl"
        _put_nested(path, result)[0].close()
        store = ResultStore(str(path))
        zero, minus = (
            store._records[key].result for key in list(store._records)[4:6]
        )
        index = store._records[list(store._records)[4]].frame.packed[0][0]
        assert repr(zero[index][0]) == "0.0"
        assert repr(minus[index][0]) == "-0.0"


def test_an_open_store_holds_under_3kb_a_record(tmp_path, result):
    """~7.6 KB per record when each line was kept as its parsed dict,
    1.83 KB with its result values in a tuple; 1 213 B (Python 3.11)
    with nested keys in the frame and one object per string.  The bound
    is that plus a 10% margin."""
    path = tmp_path / "store.jsonl"
    with ResultStore(str(path)) as store:
        for seed in range(2000):
            store.put(tiny_config(seed=seed), result)
    del store
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reopened = ResultStore(str(path))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(reopened) == 2000
    assert held / len(reopened) < 1330

"""What an open store holds per record, and that it loses nothing.

A :class:`ResultStore` keeps each record as its point fields, its result
values and its ``recorded_at``, beside one frame per campaign that holds
the rest.  What must survive that:

* frames are shared only between lines of the same JSON text — configs
  Python calls equal but JSON spells apart (``80`` / ``80.0``, ``true`` /
  ``1``, ``0.0`` / ``-0.0``) keep their own;
* every accepted line — legacy ones without ``recorded_at``, ones with a
  top-level key this code never writes, forged ones — is written back by
  ``gc`` byte for byte, and each point is served only to its own config;
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
        gap80, gap80f, _ = (records[i:i + 4] for i in range(0, 12, 4))
        del gap80[0]["recorded_at"]  # a legacy line
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


def test_an_open_store_holds_under_3kb_a_record(tmp_path, result):
    """~7.6 KB per record when each line was kept as its parsed dict."""
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
    assert held / len(reopened) < 3000

"""Flit accounting of the batch backend, with nothing counted per flit.

``BatchEngine`` keeps no per-flit lifetime counter: a VC's carried
flits are its live ``fin`` while a worm holds it and retire into
``carried`` where the release lands (``_flush``).  Pinned here:

* at arbitrary mid-worm cycles the per-class totals add up to the
  lane's moved-flit count and the lane conserves flits — for running
  lanes, a stopped lane, across ``advance_streams`` and across a forced
  slab growth;
* a sample's ``vc_usage`` sums to its ``flits_moved``;
* channels activated in one routing round take active-set seqs in
  request order, not channel order (the order the transmit epilogue
  replays; a channel-sorted ``np.unique`` result moves every number);
* ``batch.py`` keeps none of the per-move arrays, and no per-cycle
  function de-duplicates a whole winner set more than once.
"""

import ast
import re
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import batch as batch_module
from repro.simulator.batch import BatchEngine
from tests.conftest import batch_config, batch_cycle_functions


def assert_accounted(engine, index):
    lane = engine.lanes[index]
    assert sum(engine.vc_class_totals(index)) == lane.flits_moved_total, index
    assert engine.conservation_check(index), index


class TestAccountingAtArbitraryCycles:
    @settings(max_examples=25, deadline=None)
    @given(
        first=st.integers(1, 260),
        second=st.integers(1, 200),
        lanes=st.sampled_from((1, 4)),
        algorithm=st.sampled_from(("ecube", "nbc", "phop")),
        switching=st.sampled_from(("wormhole", "vct")),
        mux_policy=st.sampled_from(("round_robin", "highest_class")),
        tiny_slab=st.booleans(),
    )
    def test_totals_and_conservation_hold_mid_worm(
        self, first, second, lanes, algorithm, switching, mux_policy,
        tiny_slab,
    ):
        config = batch_config(
            algorithm=algorithm, switching=switching, mux_policy=mux_policy,
            message_length=8, offered_load=0.5,
        )
        seeds = list(range(31, 31 + lanes))
        # Two slots per lane: the slab must grow within a few cycles.
        engine = BatchEngine(
            config, seeds, slab_slots=2 if tiny_slab else None
        )
        capacity = engine._slab.capacity
        engine.run_cycles(first)
        for index in range(lanes):
            assert_accounted(engine, index)
        if lanes > 1:
            engine.stop_lane(1)
        for index in engine.running_lane_indices:
            engine.advance_streams(index)
        engine.run_cycles(second)
        for index in range(lanes):
            assert_accounted(engine, index)
        if lanes > 1:
            assert engine.lanes[1].cycle == first
        if tiny_slab and first + second > 60:
            assert engine._slab.capacity > capacity

    def test_live_and_retired_flits_both_count(self):
        """The totals are not the retired array alone: mid-run some
        worms hold their VCs (live ``fin``) and some have released."""
        engine = BatchEngine(
            batch_config(algorithm="nbc", message_length=8, offered_load=0.5),
            [3, 4],
        )
        engine.run_cycles(150)
        for index in range(2):
            engine._flush()
            retired = int(engine._carried[index].sum())
            total = sum(engine.vc_class_totals(index))
            assert 0 < retired < total
            assert total == engine.lanes[index].flits_moved_total

    def test_sample_vc_usage_sums_to_flits_moved(self):
        engine = BatchEngine(
            batch_config(algorithm="nbc", message_length=8, offered_load=0.6),
            [5, 6, 7],
        )
        engine.run_cycles(90)
        for index in range(3):
            engine.start_sample(index)
        engine.run_cycles(130)
        engine.stop_lane(2)
        engine.run_cycles(40)
        for index in range(3):
            sample = engine.end_sample(index)
            assert sample.flits_moved > 0
            assert sum(sample.vc_usage) == sample.flits_moved


def test_channels_activated_in_one_round_take_seqs_in_request_order():
    """Every routing round queues its allocations in request order
    ((lane, route seq): the scan order); the channels it activates must
    take their active-set seqs in that same order.  The run must meet
    rounds where request order and channel order disagree, or this
    would pass with channel-sorted indices too."""
    engine = BatchEngine(
        batch_config(
            radix=6, algorithm="nbc", message_length=8, offered_load=0.3
        ), [21, 22]
    )
    v, c = engine._v, engine._c
    rounds = []
    flush = engine._flush

    def recording_flush():
        if engine._pa_act_blocks:
            (chs, seqs), = engine._pa_act_blocks
            (block,) = engine._pa_blocks
            rounds.append((block[0] // v, chs.copy(), seqs.copy()))
        flush()

    engine._flush = recording_flush
    engine.run_cycles(120)
    out_of_channel_order = 0
    for won_channels, chs, seqs in rounds:
        position = {}
        for at, channel in enumerate(won_channels.tolist()):
            position.setdefault(channel, at)
        for lane in np.unique(chs // c).tolist():
            mine = chs // c == lane
            by_seq = chs[mine][np.argsort(seqs[mine], kind="stable")].tolist()
            assert by_seq == sorted(by_seq, key=position.__getitem__)
            assert len(set(seqs[mine].tolist())) == len(by_seq)
            out_of_channel_order += by_seq != sorted(by_seq)
    assert out_of_channel_order > 10


class TestNothingPerFlit:
    source = Path(batch_module.__file__).read_text(encoding="utf-8")

    def test_the_per_move_arrays_are_gone(self):
        assert not re.findall(
            r"\b_(?:la|ld|last_tx|fout|ch_moved)(?:_f)?\b", self.source
        )
        engine = BatchEngine(
            batch_config(message_length=8, offered_load=0.5), [1]
        )
        for name in ("_la", "_ld", "_last_tx", "_fout", "_ch_moved"):
            assert not hasattr(engine, name)
            assert not hasattr(engine, name + "_f")

    def test_one_full_set_unique_per_hot_function(self):
        """A per-cycle function may de-duplicate one whole set
        (``_route``: the chosen VCs, to resolve winners); any other
        ``np.unique`` there runs on a subscripted subset."""
        hot = batch_cycle_functions()
        assert {"_route", "_transmit_kernel", "_flush", "_eject"} <= set(hot)
        for name, func in hot.items():
            full = [
                node
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and not isinstance(node.args[0], ast.Subscript)
            ]
            assert len(full) <= 1, name
        assert not any(
            isinstance(node, ast.Attribute) and node.attr == "unique"
            for node in ast.walk(hot["_transmit_kernel"])
        )

"""Lane-stacked streams: the batch cycle path runs no per-lane Python.

What ``repro.simulator.soa.StreamStack`` / ``segments`` / ``tiebreaks``
and the many-lane ``MessageSlab.alloc`` / ``release`` promise:

* a stack row serves exactly its lane's unbuffered stream, and refills
  by the per-lane rule of the buffer it replaced (kept below as
  ``_ReferenceBuffer``), so the *generator state* after every take is
  that buffer's too — whatever the other lanes of the batch do;
* ``tiebreaks`` is ``Generator.integers(high)`` on the lane's routing
  stream, draw for draw, rejections included.  This file and
  ``tests/test_relaxed_golden.py`` are what names a numpy release whose
  ``integers`` stops being Lemire's method on ``next_uint32``;
* a cycle on which no lane refills, grows, stops or fails makes no
  Generator call and loops over no lane.
"""

import ast
import gc
import random
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import soa
from repro.simulator.batch import BatchEngine
from repro.simulator.soa import (
    STREAM_CHUNK,
    MessageSlab,
    StreamStack,
    segments,
    tiebreaks,
)
from repro.traffic.arrivals import geometric_gaps
from repro.util.rng import STREAM_ROUTING, RngStreams
from tests.conftest import batch_cycle_functions, tiny_config

#: stream kind -> (dtype, draw(gen, count)).
KINDS = {
    "gaps": (np.int64, lambda gen, count: geometric_gaps(count, 0.23, gen)),
    "uniforms": (np.float64, lambda gen, count: gen.random(count)),
    "words": (
        np.uint32,
        lambda gen, count: gen.integers(
            0, 2**32, size=count, dtype=np.uint32
        ),
    ),
}


def make_stack(kind, gens, width=STREAM_CHUNK):
    """A stack of *kind* whose lane ``b`` draws from ``gens[b]`` (looked
    up per refill, so a test can renew one)."""
    dtype, draw = KINDS[kind]
    return StreamStack(
        len(gens), dtype, lambda lane, count: draw(gens[lane], count), width
    )


class _ReferenceBuffer:
    """The per-lane prefetch buffer the stack replaced, verbatim: refill
    when the take does not fit, ``max(chunk, count)`` fresh draws behind
    the unread tail."""

    def __init__(self, draw):
        self.draw = draw
        self.buf = np.empty(0)
        self.pos = 0

    def take(self, count):
        pos = self.pos
        if pos + count > self.buf.shape[0]:
            fresh = self.draw(max(STREAM_CHUNK, count))
            self.buf = np.concatenate([self.buf[pos:], fresh])
            self.pos = pos = 0
        self.pos = pos + count
        return self.buf[pos:pos + count]


def lane_ids_of(counts):
    """Lane-sorted ids with ``counts[b]`` entries of lane ``b``."""
    return np.repeat(np.arange(len(counts), dtype=np.intp), counts)


class TestSegments:
    def test_runs_of_a_lane_sorted_array(self):
        ids = np.array([0, 0, 0, 2, 5, 5], dtype=np.intp)
        same, lanes, starts, counts, within = segments(ids)
        assert same is ids
        assert lanes.tolist() == [0, 2, 5]
        assert starts.tolist() == [0, 3, 4]
        assert counts.tolist() == [3, 1, 2]
        assert within.tolist() == [0, 1, 2, 0, 0, 1]

    def test_single_run_short_cut_agrees(self):
        ids = np.full(4, 3, dtype=np.intp)
        _ids, lanes, starts, counts, within = segments(ids)
        assert (lanes.tolist(), starts.tolist(), counts.tolist()) == (
            [3], [0], [4]
        )
        assert within.tolist() == [0, 1, 2, 3]


class TestStackReplaysStreams:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_row_replays_stream_and_refill_schedule(self, kind):
        """Values *and* the generator state after every take equal the
        replaced buffer's, across refills and takes beyond a chunk
        (the row widens)."""
        draw = KINDS[kind][1]
        takes = [3, 1, 40, 7, 5000, 2, 11, 4096, 9000, 5, 4000, 300]
        gen, ref_gen = np.random.default_rng(9), np.random.default_rng(9)
        stack = make_stack(kind, [gen], width=64)
        reference = _ReferenceBuffer(lambda count: draw(ref_gen, count))
        served = []
        for count in takes:
            got = stack.take_lane(0, count).copy()
            assert np.array_equal(got, reference.take(count))
            assert gen.bit_generator.state == ref_gen.bit_generator.state
            served.append(got)
        assert stack.buf.shape[1] > 9000
        assert stack.consumed(0) == sum(takes)
        direct = draw(np.random.default_rng(9), sum(takes))
        assert np.array_equal(np.concatenate(served), direct)

    def test_degenerate_rates_touch_no_stream(self):
        gens = [np.random.default_rng(seed) for seed in (3, 4, 5)]
        states = [repr(gen.bit_generator.state) for gen in gens]
        rates = (0.0, 1.0, 0.4)
        stack = StreamStack(
            3, np.int64,
            lambda lane, count: geometric_gaps(
                count, rates[lane], gens[lane]
            ),
        )
        ids = lane_ids_of([3, 5, 4])
        gaps = stack.take(segments(ids))
        assert (gaps[:3] > 10**9).all()
        assert gaps[3:8].tolist() == [1] * 5
        assert repr(gens[0].bit_generator.state) == states[0]
        assert repr(gens[1].bit_generator.state) == states[1]
        assert repr(gens[2].bit_generator.state) != states[2]

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_interleaved_lanes_equal_each_lane_alone(self, kind):
        """Multi-lane gathers serve what per-lane takes serve and leave
        every generator where the lane alone would — refills land at
        different rounds per lane."""
        rng = random.Random(5)
        seeds = (11, 12, 13, 14, 15)
        gens = [np.random.default_rng(seed) for seed in seeds]
        alone_gens = [np.random.default_rng(seed) for seed in seeds]
        stack = make_stack(kind, gens, width=STREAM_CHUNK + 16)
        alone = [make_stack(kind, [gen]) for gen in alone_gens]
        for _ in range(60):
            counts = [
                rng.choice((0, 0, 1, 7, 300, 1500, 5000)) for _ in seeds
            ]
            if not any(counts):
                continue
            ids = lane_ids_of(counts)
            got = stack.take(segments(ids))
            expected = [
                alone[b].take_lane(0, count).copy()
                for b, count in enumerate(counts) if count
            ]
            assert np.array_equal(got, np.concatenate(expected))
            for gen, alone_gen in zip(gens, alone_gens):
                assert (
                    gen.bit_generator.state == alone_gen.bit_generator.state
                )

    def test_epoch_reset_of_one_lane_between_its_neighbours_takes(self):
        gens = [np.random.default_rng(seed) for seed in (1, 2, 3)]
        stack = make_stack("uniforms", gens)
        ids = lane_ids_of([5, 6, 7])
        first = stack.take(segments(ids))
        gens[1] = np.random.default_rng(99)
        stack.reset(1)
        assert stack.consumed(1) == 0
        second = stack.take(segments(ids))
        for b, seed in ((0, 1), (2, 3)):  # neighbours carry on
            mine = ids == b
            direct = np.random.default_rng(seed).random(2 * mine.sum())
            assert np.array_equal(
                np.concatenate([first[mine], second[mine]]), direct
            )
        assert np.array_equal(
            second[ids == 1], np.random.default_rng(99).random(6)
        )
        assert np.array_equal(
            first[ids == 1], np.random.default_rng(2).random(6)
        )
        assert stack.consumed(1) == 6


def lemire_reference(words, bounds):
    """Scalar Lemire multiply-shift with rejection over a word list:
    (draws, words consumed)."""
    stream = iter(words)
    draws, used = [], 0
    for bound in bounds:
        threshold = (2**32 - bound) % bound
        while True:
            product = next(stream) * bound
            used += 1
            if product & 0xFFFFFFFF >= threshold:
                break
        draws.append(product >> 32)
    return draws, used


#: One routing round: per lane, the tie sizes of its requests (<= 1:
#: no draw).
_rounds = st.lists(
    st.lists(st.lists(st.integers(0, 63), max_size=12), min_size=1,
             max_size=4),
    min_size=1, max_size=8,
)


class TestTiebreaks:
    @given(seed=st.integers(0, 2**40), rounds=_rounds,
           chunk=st.sampled_from((1, 5, STREAM_CHUNK)))
    @settings(max_examples=200, deadline=None)
    def test_equals_generator_integers(self, seed, rounds, chunk):
        """Draws equal ``Generator.integers(high)`` on an identically
        seeded generator for any split into rounds and lanes, and so
        does the stream position the fingerprint reports."""
        lanes = max(len(per_lane) for per_lane in rounds)
        families = [RngStreams(seed + b) for b in range(lanes)]
        gens = [rng.numpy_stream(STREAM_ROUTING) for rng in families]
        ref = [
            RngStreams(seed + b).numpy_stream(STREAM_ROUTING)
            for b in range(lanes)
        ]
        with mock.patch.object(soa, "STREAM_CHUNK", chunk):
            stack = make_stack("words", gens, width=8)
            for per_lane in rounds:
                counts = [len(highs) for highs in per_lane]
                if not sum(counts):
                    continue
                ids = lane_ids_of(counts)
                high = np.array(
                    [h for highs in per_lane for h in highs], dtype=np.int64
                )
                expected = np.zeros(high.shape[0], dtype=np.int64)
                for b in range(len(per_lane)):
                    mine = (ids == b) & (high > 1)
                    if mine.any():
                        expected[mine] = ref[b].integers(high[mine])
                assert tiebreaks(stack, ids, high).tolist() == (
                    expected.tolist()
                )
        for b, rng in enumerate(families):
            assert rng.numpy_state_after(
                STREAM_ROUTING, stack.consumed(b)
            ) == ref[b].bit_generator.state

    def test_many_draws_across_refills(self):
        """The same equality at the real chunk size, over refills."""
        rng = np.random.default_rng(1)
        gens = [np.random.default_rng(seed) for seed in (5, 6, 7)]
        ref = [np.random.default_rng(seed) for seed in (5, 6, 7)]
        stack = make_stack("words", gens)
        for _ in range(6):
            counts = rng.integers(1500, 3500, size=3)
            ids = lane_ids_of(counts)
            high = rng.integers(2, 64, size=ids.shape[0])
            expected = np.concatenate(
                [ref[b].integers(high[ids == b]) for b in range(3)]
            )
            assert np.array_equal(tiebreaks(stack, ids, high), expected)
        assert (stack.drawn > STREAM_CHUNK).all()

    def test_forced_rejection_shifts_only_that_lanes_later_draws(self):
        """A planted word 0 under bound 3 is rejected (threshold 1):
        the lane redraws and its later draws shift by one word; the
        other lanes are untouched; the walk refills in its middle."""
        rng = np.random.default_rng(2)
        planted = [
            rng.integers(1, 2**32, size=40, dtype=np.uint32)
            for _ in range(3)
        ]
        planted[1][4] = 0
        cursor = [0, 0, 0]

        def draw(lane, count):
            start = cursor[lane]
            cursor[lane] = start + count
            return planted[lane][start:start + count]

        counts = [6, 9, 7]
        ids = lane_ids_of(counts)
        high = rng.integers(2, 64, size=ids.shape[0])
        high[counts[0] + 4] = 3
        with mock.patch.object(soa, "STREAM_CHUNK", 6):
            stack = StreamStack(3, np.uint32, draw, width=4)
            got = tiebreaks(stack, ids, high)
        for b in range(3):
            mine = ids == b
            draws, used = lemire_reference(
                planted[b].tolist(), high[mine].tolist()
            )
            assert got[mine].tolist() == draws
            assert stack.consumed(b) == used
            assert used == counts[b] + (b == 1)
        # Lane 1 needed a tenth word: its first refill held 9.
        assert cursor[1] > 9


class _CountingGenerator:
    """A lane generator that counts the calls made on it."""

    def __init__(self, gen):
        self.gen = gen
        self.calls = 0

    @property
    def bit_generator(self):
        return self.gen.bit_generator

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.gen.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.gen.integers(*args, **kwargs)


class TestNoPerLanePython:
    @pytest.mark.parametrize("lanes", (4, 16))
    def test_generator_calls_are_refills_only(self, lanes):
        """2 000 cycles cost each lane and stream one Generator call
        per chunk of draws it consumed — not one per cycle or routing
        round (the parent made one ``integers`` call per lane and
        round)."""
        config = tiny_config(
            algorithm="nbc", offered_load=0.5, flow_control="conservative",
            backend="batch", identity="relaxed",
        )
        engine = BatchEngine(config, list(range(30, 30 + lanes)))
        for lane in engine.lanes:
            lane.gen_arrivals = _CountingGenerator(lane.gen_arrivals)
            lane.gen_destinations = _CountingGenerator(lane.gen_destinations)
            lane.gen_routing = _CountingGenerator(lane.gen_routing)
        engine.run_cycles(2000)
        streams = (
            ("gen_arrivals", engine._arr_gaps),
            ("gen_destinations", engine._dst_uniforms),
            ("gen_routing", engine._tie_words),
        )
        for lane in engine.lanes:
            assert lane.generated_total > 1000
            for name, stack in streams:
                consumed = stack.consumed(lane.index)
                assert consumed > 1000, name
                calls = getattr(lane, name).calls
                assert calls <= consumed / STREAM_CHUNK + 3, (name, calls)

    def test_hot_functions_loop_over_no_lane(self):
        """No per-cycle function of batch.py iterates the lane list (or
        a list of running lanes)."""
        hot = batch_cycle_functions().values()
        assert {"step", "_generate", "_route", "_complete"} <= {
            func.name for func in hot
        }
        for func in hot:
            for node in ast.walk(func):
                if not isinstance(node, (ast.For, ast.comprehension)):
                    continue
                for part in ast.walk(node.iter):
                    assert not (
                        isinstance(part, ast.Attribute)
                        and part.attr in ("lanes", "_running")
                    ), f"{func.name} loops over {part.attr}"


def test_finished_engine_is_freed_by_reference_count():
    """Lanes and the stacks' draw callbacks hold no reference to the
    engine: with one, every finished engine of a sweep waits for the
    cycle collector (read as +9% peak RSS on ``replicate_b32``)."""
    config = tiny_config(
        algorithm="nbc", offered_load=0.4, flow_control="conservative",
        backend="batch", identity="relaxed",
    )
    gc.disable()
    try:
        engine = BatchEngine(config, [1, 2, 3])
        engine.start_sample(0)
        engine.run_cycles(150)
        engine.end_sample(0)
        gone = weakref.ref(engine)
        del engine
        assert gone() is None
    finally:
        gc.enable()


class TestSlabManyLanes:
    def test_many_lane_alloc_release_equals_per_lane_calls(self):
        """One call for all due lanes pops and pushes what one call per
        lane does: the same slots in the same (LIFO) order per lane."""
        rng = random.Random(8)
        fused, serial = MessageSlab(4, capacity=64), MessageSlab(4, capacity=64)
        held = [[] for _ in range(4)]
        for _ in range(300):
            counts = [rng.randrange(0, 4) for _ in range(4)]
            if rng.random() < 0.5:
                counts = [
                    min(count, 40 - len(held[b]))
                    for b, count in enumerate(counts)
                ]
                if not any(counts):
                    continue
                ids = lane_ids_of(counts)
                got = fused.alloc(segments(ids))
                for b, count in enumerate(counts):
                    if not count:
                        continue
                    one = lane_ids_of([0] * b + [count])
                    alone = serial.alloc(segments(one))
                    assert got[ids == b].tolist() == alone.tolist()
                    held[b].extend(alone.tolist())
            else:
                back = [
                    [held[b].pop(rng.randrange(len(held[b])))
                     for _ in range(min(count, len(held[b])))]
                    for b, count in enumerate(counts)
                ]
                if not any(back):
                    continue
                ids = lane_ids_of([len(slots) for slots in back])
                fused.release(
                    segments(ids), np.array(sum(back, []), dtype=np.int32)
                )
                for b, slots in enumerate(back):
                    if slots:
                        one = lane_ids_of([0] * b + [len(slots)])
                        serial.release(
                            segments(one), np.array(slots, dtype=np.int32)
                        )
            assert np.array_equal(fused._free_top, serial._free_top)
            for b in range(4):
                top = fused.free_slots(b)
                assert np.array_equal(
                    fused._free[b, :top], serial._free[b, :top]
                )
        assert fused.grow_count == serial.grow_count == 0
        assert max(len(slots) for slots in held) > 10

    def test_growth_when_one_lane_is_short(self):
        """Any short lane grows the slab before anyone pops (so slot
        numbers may differ from per-lane growth — they are bookkeeping
        only); every lane still gets distinct slots off its own stack."""
        slab = MessageSlab(3, capacity=4)
        ids = lane_ids_of([1, 6, 2])  # lane 1 wants more than it has
        slots = slab.alloc(segments(ids))
        assert slab.capacity == 8 and slab.grow_count == 1
        for b, count in enumerate((1, 6, 2)):
            mine = slots[ids == b]
            assert len(set(mine.tolist())) == count
            assert slab.free_slots(b) == 8 - count
            # The slots a lane holds and its free stack partition 0..7.
            free = slab._free[b, :slab.free_slots(b)].tolist()
            assert sorted(free + mine.tolist()) == list(range(8))
        # LIFO across lanes at once: what was pushed last pops first.
        slab.release(segments(ids), slots)
        again = slab.alloc(segments(ids))
        assert again.tolist() == slots.tolist()

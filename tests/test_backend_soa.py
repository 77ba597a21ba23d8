"""The batch backend's structure-of-arrays message state.

The SoA contract, pinned here:

* the per-cycle loop constructs **zero** per-message Python objects
  (``repro.simulator.batch`` defines no ``_BatchMessage`` at all);
* results are invariant to slab sizing: a tiny slab that grows and
  recycles slots through the free list reproduces the default slab's
  fingerprints exactly;
* the live messages a lane's slab walks are the lane's in-flight set
  (conservation and lane-composition independence over drawn configs
  are ``tests/test_differential.py``'s; a lane failing mid-run is
  ``tests/test_backend_batch.py``'s per-lane deadlock test);
* the :class:`MessageSlab` / :class:`RequestPool` primitives handle
  their growth, recycle, and tombstone edge cases, and a
  :class:`StreamStack` row replays its unbuffered stream
  (``tests/test_lane_streams.py`` has the many-lane cases).
"""

import numpy as np

from repro.simulator import batch as batch_module
from repro.simulator.batch import BatchEngine
from repro.simulator.soa import (
    DEAD_STAMP,
    MessageSlab,
    RequestPool,
    StreamStack,
    segments,
)
from repro.traffic.arrivals import geometric_gaps
from tests.conftest import batch_config


class TestZeroBatchMessage:
    """The per-cycle loop must never build a per-message object."""

    def test_relaxed_loop_builds_no_message_objects(self, monkeypatch):
        def boobytrap(self, lane, slot):
            raise AssertionError(
                "MessageView constructed on the per-cycle SoA path"
            )

        # The one place a message becomes a Python object (reports and
        # introspection only).
        monkeypatch.setattr(MessageSlab, "view", boobytrap)
        config = batch_config(algorithm="nbc", offered_load=0.45)
        engine = BatchEngine(config, [3, 4])
        engine.run_cycles(300)  # admissions, routing, deliveries
        for index in range(2):
            assert engine.lanes[index].delivered_total > 0
            assert engine.conservation_check(index)

    def test_batch_module_defines_no_batch_message(self):
        """The object representation went with the strict stepper."""
        assert not hasattr(batch_module, "_BatchMessage")


class TestSlabSizingInvariance:
    """Free-list recycle and growth are behaviorally invisible."""

    def test_tiny_slab_reproduces_default_slab(self):
        config = batch_config(algorithm="phop", offered_load=0.5)
        seeds = [7, 8]
        default = BatchEngine(config, seeds)
        tiny = BatchEngine(config, seeds, slab_slots=2)
        default.run_cycles(400)
        tiny.run_cycles(400)
        # The congested run overflows two slots many times over ...
        assert tiny._slab.grow_count > 0
        assert tiny._slab.capacity > 2
        # ... yet every lane's full state digest is identical.
        for index in range(len(seeds)):
            assert tiny.state_fingerprint(index) == (
                default.state_fingerprint(index)
            )
            assert tiny.conservation_check(index)

    def test_slots_recycle_through_the_free_list(self):
        config = batch_config(algorithm="ecube", offered_load=0.3)
        engine = BatchEngine(config, [5], slab_slots=4)
        engine.run_cycles(600)
        lane = engine.lanes[0]
        slab = engine._slab
        assert lane.delivered_total > slab.capacity, (
            "test needs more completions than slots to prove recycling"
        )
        # Free-list accounting closes: live + free == capacity.
        assert slab.live_count(0) + slab.free_slots(0) == slab.capacity

    def test_lane_stop_mid_worm_freezes_slab_state(self):
        """Stopping a lane with worms in flight parks its slab rows."""
        config = batch_config(algorithm="nlast", offered_load=0.55)
        engine = BatchEngine(config, [5, 9, 13])
        engine.run_cycles(150)
        assert engine.lanes[1].in_flight > 0  # worms mid-route
        engine.stop_lane(1)
        assert engine.running_lane_indices == [0, 2]
        # Its pending requests froze on the lane, out of the pool.
        assert engine.lanes[1].frozen_pending
        assert engine._pool.lane_entries(1)[0].shape[0] == 0
        frozen = engine.state_fingerprint(1)
        engine.run_cycles(150)
        assert engine.state_fingerprint(1) == frozen
        for index in (0, 2):
            assert engine.conservation_check(index)
            assert engine.lanes[index].generated_total > 0


class TestPerLaneDeadlock:
    """What a failing lane's report reads: the slab's live messages."""

    def test_iter_live_messages_walks_the_slab(self):
        config = batch_config(algorithm="nbc", offered_load=0.5)
        engine = BatchEngine(config, [3])
        engine.run_cycles(120)
        lane = engine.lanes[0]
        views = list(engine._iter_live_messages(lane))
        assert len(views) == lane.in_flight
        slab = engine._slab
        assert len(views) == slab.live_count(0)
        for view in views:
            assert 0 <= view.src < engine.topology.num_nodes
            assert 0 <= view.dst < engine.topology.num_nodes
            assert view.flits_to_inject >= 0
            assert view.flits_ejected >= 0


def lane_run(lane, count):
    """The segments of *count* entries of one lane."""
    return segments(np.full(count, lane, dtype=np.intp))


class TestMessageSlabPrimitives:
    def test_alloc_release_recycles_lifo(self):
        slab = MessageSlab(2, capacity=4)
        first = slab.alloc(lane_run(0, 2))
        assert first.tolist() == [2, 3]
        assert slab.free_slots(0) == 2
        assert slab.free_slots(1) == 4  # lanes have separate stacks
        slab.release(lane_run(0, 1), np.array([3], dtype=np.int32))
        assert slab.alloc(lane_run(0, 1)).tolist() == [3]  # most recent first
        assert slab.free_slots(0) == 2

    def test_exhaustion_grows_and_preserves_rows(self):
        slab = MessageSlab(2, capacity=2)
        slots = slab.alloc(lane_run(0, 2))
        slab.src[0, slots] = [4, 5]
        slab.mid[0, slots] = [40, 50]
        slab.live[0, slots] = True
        assert slab.free_slots(0) == 0
        # Needs two doublings: 2 -> 4 -> 8.
        slab.ensure(np.array([0]), np.array([3]))
        assert slab.capacity == 8
        assert slab.grow_count == 2
        # Existing rows kept their slot numbers and contents.
        assert slab.src[0, slots].tolist() == [4, 5]
        assert slab.mid[0, slots].tolist() == [40, 50]
        assert slab.live_count(0) == 2
        # Both lanes gained the fresh slots, fills intact.
        assert slab.free_slots(0) == 6
        assert slab.free_slots(1) == 8
        assert slab.head_flat[1].tolist() == [-1] * 8
        # Fresh slots never collide with the two still in use.
        fresh = slab.alloc(lane_run(0, 6))
        assert sorted(fresh.tolist() + slots.tolist()) == list(range(8))

    def test_flat_views_alias_after_growth(self):
        slab = MessageSlab(2, capacity=2)
        slab.grow()
        g = 1 * slab.capacity + 3  # lane 1, slot 3 via the flat view
        slab.src_f[g] = 9
        assert slab.src[1, 3] == 9


class TestRequestPoolPrimitives:
    def _pool(self):
        pool = RequestPool(2, capacity=4)
        pool.extend(
            np.array([0, 1, 0]),
            np.array([10, 11, 12], dtype=np.int32),
            np.array([100, 101, 102], dtype=np.int64),
            np.array([[5, 6], [7, -1], [8, 9]], dtype=np.int64),
        )
        return pool

    def test_extend_and_lane_entries(self):
        pool = self._pool()
        assert pool.n == 3
        slots, seqs = pool.lane_entries(0)
        assert slots.tolist() == [10, 12]
        assert seqs.tolist() == [100, 102]
        # Candidates live transposed: one row per candidate position.
        assert pool.cand[:, :3].T.tolist() == [[5, 6], [7, -1], [8, 9]]
        assert pool.blocked[:3].tolist() == [-1, -1, -1]

    def test_kill_tombstones_without_moving_entries(self):
        pool = self._pool()
        pool.kill(np.array([1]))
        assert pool.dead == 1
        assert pool.n == 3  # storage untouched
        assert pool.lane[1] == -1
        assert pool.blocked[1] == DEAD_STAMP
        # Dead entries vanish from every lane's view.
        assert pool.lane_entries(1)[0].shape[0] == 0
        assert pool.lane_entries(0)[0].tolist() == [10, 12]

    def test_prune_compacts_tombstones(self):
        pool = self._pool()
        pool.kill(np.array([0]))
        pool.prune()
        assert (pool.n, pool.dead) == (2, 0)
        assert pool.slot[:2].tolist() == [11, 12]  # order preserved
        assert pool.cand[:, :2].T.tolist() == [[7, -1], [8, 9]]

    def test_drop_lane_removes_only_that_lane(self):
        pool = self._pool()
        pool.drop_lane(0)
        assert pool.n == 1
        assert pool.slot[:1].tolist() == [11]
        assert pool.lane[:1].tolist() == [1]

    def test_growth_preserves_entries(self):
        pool = self._pool()
        count = 6  # over the capacity of 4
        pool.extend(
            np.full(count, 1),
            np.arange(20, 20 + count, dtype=np.int32),
            np.arange(200, 200 + count, dtype=np.int64),
            np.full((count, 2), 3, dtype=np.int64),
        )
        assert pool.n == 9
        assert pool.slot[:3].tolist() == [10, 11, 12]
        assert pool.cand[:, 0].tolist() == [5, 6]

    def test_widen_pads_existing_candidates(self):
        pool = self._pool()
        pool.extend(
            np.array([1]),
            np.array([13], dtype=np.int32),
            np.array([103], dtype=np.int64),
            np.array([[1, 2, 3, 4]], dtype=np.int64),  # wider row
        )
        assert pool.width == 4
        assert pool.cand[:, 0].tolist() == [5, 6, -1, -1]
        assert pool.cand[:, 3].tolist() == [1, 2, 3, 4]


def gap_stack(rate, gen):
    """A one-lane stack of geometric gaps at *rate* over *gen*."""
    return StreamStack(
        1, np.int64, lambda lane, count: geometric_gaps(count, rate, gen)
    )


class TestRngBuffers:
    """A stack row must replay the unbuffered stream bit-for-bit."""

    def test_gap_buffer_matches_unbuffered_stream(self):
        takes = [3, 1, 40, 7, 5000, 2, 11]  # spans several refills
        buffered = gap_stack(0.23, np.random.default_rng(9))
        chunks = [buffered.take_lane(0, count).copy() for count in takes]
        direct = geometric_gaps(
            sum(takes), 0.23, np.random.default_rng(9)
        )
        assert np.array_equal(np.concatenate(chunks), direct)

    def test_gap_buffer_degenerate_rates_touch_no_stream(self):
        gen = np.random.default_rng(3)
        state = repr(gen.bit_generator.state)
        assert gap_stack(1.0, gen).take_lane(0, 5).tolist() == [1] * 5
        assert (gap_stack(0.0, gen).take_lane(0, 3) > 10**9).all()
        assert repr(gen.bit_generator.state) == state

    def test_uniform_buffer_matches_unbuffered_stream(self):
        takes = [1, 16, 4096, 2, 300]
        gen = np.random.default_rng(17)
        buffered = StreamStack(
            1, np.float64, lambda lane, count: gen.random(count)
        )
        chunks = [buffered.take_lane(0, count).copy() for count in takes]
        direct = np.random.default_rng(17).random(sum(takes))
        assert np.array_equal(np.concatenate(chunks), direct)


class _PerClassGrown(BatchEngine):
    """Reference: the outstanding array widened by exactly one message
    class per reallocation (the growth rule before it doubled)."""

    def _intern_pairs(self, keys):
        n = self._num_nodes
        for key in keys.tolist():
            src, dst = divmod(key, n)
            state = self.algorithm.new_state(src, dst)
            self._ic_row[key] = self._table.row_for(src, dst, state)
            msg_class = self.algorithm.message_class(src, dst, state)
            cid = self._class_ids.get(msg_class)
            if cid is None:
                cid = len(self._class_list)
                self._class_ids[msg_class] = cid
                self._class_list.append(msg_class)
                if (cid + 1) * n > self._outst.shape[1]:
                    wide = np.zeros((self._b, (cid + 1) * n), dtype=np.int64)
                    wide[:, : self._outst.shape[1]] = self._outst
                    self._outst = wide
                    self._outst_f = wide.reshape(-1)
            self._ic_cls[key] = cid


class TestOutstandingGrowth:
    """e-cube has one message class per first-hop VC — 336 on the 8x8
    torus — so the outstanding array must not reallocate per class."""

    CONFIG = dict(radix=8, algorithm="ecube", offered_load=0.6)

    def test_interning_all_pairs_reallocates_log_classes_times(self):
        engine = BatchEngine(batch_config(**self.CONFIG), [3, 4])
        n = engine._num_nodes
        arrays = {id(engine._outst): engine._outst}
        for key in range(n * n):
            if key // n != key % n:
                engine._intern_pairs(np.array([key]))
                arrays.setdefault(id(engine._outst), engine._outst)
        classes = len(engine._class_list)
        assert classes == 336
        # Doubling from one class: ceil(log2(336)) = 9 reallocations.
        assert len(arrays) - 1 <= int(np.ceil(np.log2(classes)))
        assert engine._outst.shape[1] >= classes * n
        assert engine._outst.shape[1] % n == 0
        assert engine._outst_f.base is engine._outst

    def test_admission_matches_per_class_grown_reference(self):
        config = batch_config(**self.CONFIG)
        seeds = [3, 4, 5]
        doubled = BatchEngine(config, seeds)
        reference = _PerClassGrown(config, seeds)
        doubled.run_cycles(500)
        reference.run_cycles(500)
        used = reference._outst.shape[1]
        assert doubled._outst.shape[1] > used
        assert np.array_equal(doubled._outst[:, :used], reference._outst)
        assert not doubled._outst[:, used:].any()
        for index in range(len(seeds)):
            lane, ref_lane = doubled.lanes[index], reference.lanes[index]
            assert lane.refused > 0, "test needs refusals"
            assert lane.generated_total == ref_lane.generated_total
            assert lane.refused == ref_lane.refused
            assert doubled.state_fingerprint(index) == (
                reference.state_fingerprint(index)
            )
            assert doubled.conservation_check(index)

"""Vectorized lockstep multi-seed backend (``SimulationConfig.backend="batch"``).

B simulations of one (topology, algorithm, traffic, load) configuration —
differing only by seed — advance in lockstep, one shared cycle at a time.
All per-virtual-channel state (ownership, buffer occupancy, the worm's
flit counter, flits retired by released worms) and all per-physical-
channel state (round-robin pointer, activity sequence) live in flat numpy
arrays with a leading batch axis; message state is structure-of-arrays
(:class:`repro.simulator.soa.MessageSlab`: per-message columns in
``[B, M]`` slabs addressed by free-list-recycled slots); and the lanes'
random streams and counters are lane-stacked arrays too
(:class:`repro.simulator.soa.StreamStack`, the ``[6, B]`` counter
matrix).  Every phase of a cycle is therefore a handful of array-at-once
kernels whatever B is, instead of a Python scan per lane.  There is one
stepper and no mode switch.

**What this backend is for.**  Aggregate throughput of multi-seed
replications; how it compares with the object engine per core at each
batch width B is measured once, in ``docs/performance.md`` ("Batch
step kernels"): slower at B=1, ahead from B of about 4-8.

**Contract: statistical, not bitwise** (``identity="relaxed"``, the only
identity a ``backend="batch"`` config can carry).  Per-lane numpy
Generators replace the object engine's ``random.Random`` streams, with
draws batched per phase (geometric arrival gaps, destination uniforms
and the 32-bit words behind the routing tie-breaks, each prefetched
through a stream-order-preserving lane stack), and routing/VC
allocation is a round-based vectorized
kernel gathering candidate sets from the dense rows of the
:class:`repro.routing.tables.RouteTable` both engines share.  Results
are deterministic per (config, seed) and independent of batch
composition — each lane's draw and refill sequence depends
only on its own state — but differ per seed from the object engine's;
their *distributions* are validated against object-engine runs by
:mod:`repro.analysis.equivalence` (``repro-campaign equivalence``).  The
bit-exact path for any configuration is ``backend="object"`` (one
engine per seed, ``--jobs`` for cores).

The transmit kernel rests on one property of the engine's *conservative*
flow control: within a cycle, every transmit decision is a pure function
of the post-ejection, pre-transmission state.  The snapshot timestamps
(``last_arrival_cycle``/``last_departure_cycle``) exist precisely to make
the object engine's sequential channel scan order-invariant — which means
a simultaneous whole-array evaluation commits the exact same set of moves
from the same state.

**Unsupported configurations** raise
:class:`~repro.util.errors.ConfigurationError`:

* ``flow_control="ideal"`` — the ideal-flow-control fixpoint lets a flit
  enter a slot freed *earlier in the same cycle*, so the committed move
  set depends on the intra-cycle poll order (a later pass can hand a
  freed slot to a lower-round-robin-rank VC).  That is a sequential
  data dependence, not an array-at-once evaluation.
* ``switching="saf"`` — store-and-forward reads the *live* upstream
  ``flits_in`` during the pass (packet assembly can complete mid-cycle),
  which is order-dependent even under conservative flow control.
* ``obs=True`` — per-cycle per-message hooks defeat the point of
  batching; attach an observer to an object-backend run instead.

A lane whose watchdog trips records the same wait-for report as the
object engine (:mod:`repro.simulator.sanitizer`), built from its pending
requests and VC owners when it fails (:meth:`BatchEngine._fail_lane`).

Wormhole and VCT, both mux policies, and all selection policies are
supported (conservative wormhole uses the 2-flit buffers
``effective_buffer_depth`` already assigns it).

**Performance structure.**  Per cycle: generation serves every due
lane's gap redraws and destination uniforms with one gather each from
the stream stacks and writes admitted messages as column scatters
(slots popped and ids numbered for all lanes at once, through the one
``segments`` helper that every "entries of each lane" computation
uses); routing is a park/wake pass (blocked
requests re-test only when a candidate VC was released since the last
pass — see ``_released``) over a tombstoning
:class:`~repro.simulator.soa.RequestPool`; array writes from VC
allocation/release are *deferred* into pending blocks flushed as one
batched scatter just before the transmit kernel (``_flush``); the
transmit/eject kernels index whole-array state through 1-D views with
absolute indices ``b*C*V + flat`` — transmit's one dense pass over
``[B*C*V]`` finds the candidate VCs, and supply, mux keys and each
channel's winner are computed on those alone; and move consequences
(release bookkeeping, ejection, injection completion, per-winner commits) are
masked scatters in the per-cycle epilogue, applied in ascending
moving-channel ``active_seq`` order — the object engine's poll order
over its insertion-ordered active set.  A move writes only what the
cycle path reads; what only events read is gathered on head flits and
emptying moves, and lifetime accounting happens at release.  Lane
bookkeeping (flit counts, progress, the watchdog, lane clocks) is mask
ops over ``[B]`` counter rows.  Python runs per lane only when one
refills a stream (once per 4096 draws), grows the slab, stops or fails.
What remains per cycle is numpy kernel dispatch: 520-670 executed
lines of this module and ``soa`` per step on an 8x8 torus, the same at
any B, so a B=1 step costs a third to a half of a B=32 one.  Routing is the
largest phase — its rounds re-gather the survivors' candidate rows and
draw tie-breaks per round — then transmit's per-move commit and event
epilogue, then generation; the first pass over a fresh route table adds
the cold-path successor interning on top.  The measured split is in
docs/performance.md ("Batch step kernels").
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.routing.base import RoutingAlgorithm
from repro.routing.tables import route_table
from repro.simulator.config import SimulationConfig
from repro.simulator.sanitizer import BlockedMessage, deadlock_error
from repro.simulator.soa import (
    DEAD_STAMP,
    DeliverQueue,
    MessageSlab,
    RequestPool,
    STREAM_CHUNK,
    Segments,
    StreamStack,
    lane_order,
    segments,
    tiebreaks,
)
from repro.stats.counters import SampleRecord
from repro.topology.base import Topology
from repro.traffic.arrivals import geometric_gaps
from repro.traffic.base import (
    TrafficPattern,
    destinations_from_uniforms,
)
from repro.traffic.load import offered_load_to_rate
from repro.util.errors import ConfigurationError, DeadlockError
from repro.util.fingerprint import state_fingerprint as route_state_fingerprint
from repro.util.rng import (
    STREAM_ARRIVALS,
    STREAM_DESTINATIONS,
    STREAM_ROUTING,
    RngStreams,
)

#: Masked-out load in the least-multiplexed kernel (any value above
#: every possible per-channel reserved-VC count works).
_LOAD_INF = np.int64(1) << 62

#: Mux key of a channel with no ready VC (above every packed key).
_NO_KEY = np.int16(2**15 - 1)

#: "Never due" sentinel for the arrival array (matches the
#: geometric_gaps sentinel).
_ARR_NEVER = 1 << 60


#: Rows of the engine's ``[6, B]`` lane-counter matrix.
_CYCLE, _GENERATED, _DELIVERED, _FLITS, _REFUSED, _PROGRESS = range(6)


class _Lane:
    """What is per seed and not an array: the seed's random streams,
    sample bookkeeping, what froze when the lane stopped, its error.

    The lane's counters are a column of the engine's counter matrix,
    which the phases update for all lanes at once; the lane holds that
    column to read from (and nothing else of the engine: a finished
    engine must be freed by reference count, not wait for the cycle
    collector).  The batch path counts a message when it is admitted,
    so ``generated_total`` is also the admitted count and the next
    message id, and ``in_flight`` is what was generated and not yet
    delivered.
    """

    __slots__ = (
        "index",
        "seed",
        "rng",
        "gen_arrivals",
        "gen_destinations",
        "gen_routing",
        "injection_rate",
        "delivering",
        "frozen_pending",
        "sample",
        "sample_flits_base",
        "sample_generated_base",
        "sample_refused_base",
        "sample_vc_base",
        "error",
        "_counts",
    )

    def __init__(
        self,
        index: int,
        seed: int,
        injection_rate: float,
        counts: np.ndarray,
    ) -> None:
        self.index = index
        self.seed = seed
        self.injection_rate = injection_rate
        self.rng = RngStreams(seed)
        self._counts = counts
        #: Flat VC indices delivering at their destination, frozen here
        #: when the lane stops (running lanes' entries live in the
        #: engine's shared deliver queue).
        self.delivering: List[int] = []
        #: Slab slots of route requests frozen when the lane stopped
        #: (the shared pool drops them; fingerprints still need the
        #: pending set).
        self.frozen_pending: List[int] = []
        self.sample: Optional[SampleRecord] = None
        self.sample_flits_base = 0
        self.sample_generated_base = 0
        self.sample_refused_base = 0
        self.sample_vc_base: List[int] = []
        #: DeadlockError recorded when this lane's watchdog fired.
        self.error: Optional[DeadlockError] = None
        self.refresh_streams()

    def refresh_streams(self) -> None:
        """Per-phase numpy Generators for the current rng epoch (the
        engine's stream stacks draw from whichever are current)."""
        self.gen_arrivals = self.rng.numpy_stream(STREAM_ARRIVALS)
        self.gen_destinations = self.rng.numpy_stream(STREAM_DESTINATIONS)
        self.gen_routing = self.rng.numpy_stream(STREAM_ROUTING)

    @property
    def cycle(self) -> int:
        return int(self._counts[_CYCLE])

    @property
    def generated_total(self) -> int:
        return int(self._counts[_GENERATED])

    @property
    def delivered_total(self) -> int:
        return int(self._counts[_DELIVERED])

    @property
    def in_flight(self) -> int:
        return int(self._counts[_GENERATED] - self._counts[_DELIVERED])

    @property
    def flits_moved_total(self) -> int:
        return int(self._counts[_FLITS])

    @property
    def refused(self) -> int:
        return int(self._counts[_REFUSED])


class BatchEngine:
    """B lockstep simulation lanes over shared flat-array network state.

    Array layout (``B`` lanes, ``C`` physical channels, ``V`` virtual
    channels per channel, flat VC index ``f = c * V + v``, absolute index
    ``a = b * C * V + f``; every [B, C*V] array also has a 1-D view used
    with absolute indices):

    ========================  =============  ==================================
    array                     shape/dtype    meaning
    ========================  =============  ==================================
    ``owner``                 [B, C*V] i64   owner's slab slot, -1 when free
    ``occ/fin``               [B, C*V] i16   buffer occupancy / flits in
    ``carried``               [B, C*V] i64   flits of *released* worms
    ``up``                    [B, C*V] i32   upstream flat index, -1 at source
    ``up_abs``                [B, C*V] intp  absolute supply index (gather)
    ``inject``                [B, C*V] i16   source-side flits_to_inject
    ``front/isdst``           [B, C*V] bool  worm front / at dst
    ``rr_next``               [B, C]   i32   round-robin cursor
    ``active_seq``            [B, C]   i64   active-set insertion order
    ========================  =============  ==================================
    """

    def __init__(
        self,
        config: SimulationConfig,
        seeds: Sequence[int],
        topology: Optional[Topology] = None,
        algorithm: Optional[RoutingAlgorithm] = None,
        traffic: Optional[TrafficPattern] = None,
        slab_slots: Optional[int] = None,
    ) -> None:
        if not seeds:
            raise ConfigurationError("batch backend needs at least one seed")
        if config.backend != "batch":
            # SimulationConfig ties conservative flow control, wormhole
            # or VCT switching, no obs and identity="relaxed" to the
            # backend; results are filed under the config's identity.
            raise ConfigurationError(
                "the batch backend runs backend='batch' configs only "
                "(conservative flow control, wormhole or VCT switching, "
                "no obs; statistically, not bitwise, equivalent results); "
                "the bit-exact path for this config is backend='object'"
            )
        if config.message_length >= 2 ** 15:
            raise ConfigurationError(
                "the batch backend stores flit counters as int16; "
                f"message_length {config.message_length} does not fit"
            )
        self.config = config
        self.topology = topology if topology is not None else (
            config.build_topology()
        )
        self.algorithm = algorithm if algorithm is not None else (
            config.build_algorithm(self.topology)
        )
        self.traffic = traffic if traffic is not None else (
            config.build_traffic(self.topology)
        )
        self.injection_rate = offered_load_to_rate(
            config.offered_load,
            self.topology,
            config.message_length,
            self.traffic.mean_distance(),
        )
        self.seeds = list(seeds)

        b = len(self.seeds)
        c = len(self.topology.links)
        v = self.algorithm.num_virtual_channels
        self._b = b
        self._c = c
        self._v = v
        cv = c * v
        self._cv = cv
        self._length = config.message_length
        self._cap = config.effective_buffer_depth()
        self._priority = config.mux_policy == "highest_class"

        # Table-driven routing kernels + batched numpy rng +
        # structure-of-arrays message state.  The table is the one the
        # object engine reads too, shared per process when the algorithm
        # was built here by name (repro.routing.tables): it may arrive
        # pre-grown, so nothing below depends on row numbers or width.
        self._table = route_table(
            self.algorithm, config.algorithm if algorithm is None else None
        )
        self._dest_table = self.traffic.destination_table()
        nn = self.topology.num_nodes
        self._num_nodes = nn
        #: Dense (src * N + dst) injection caches — route row, interned
        #: class id — filled on each pair's first arrival (the
        #: callbacks are deterministic per pair), then gathered
        #: array-at-once per generation cycle; the distances are the
        #: topology's all-pairs table, flattened.
        self._ic_row = np.full(nn * nn, -1, dtype=np.int64)
        self._ic_cls = np.zeros(nn * nn, dtype=np.int64)
        self._ic_dist = self.topology.distance_table().reshape(-1)
        self._class_ids: Dict[Hashable, int] = {}
        self._class_list: List[Hashable] = []
        #: Outstanding injections, class-major [B, K*N]: the vectorized
        #: InjectionController occupancy (K doubles as classes intern;
        #: admission keys are unique per lane-cycle because arrival
        #: gaps are >= 1).
        self._outst = np.zeros((b, nn), dtype=np.int64)
        self._outst_f = self._outst.reshape(-1)
        #: Per-channel reserved-VC counts: least-multiplexed loads and
        #: 0->1 activation detection both gather from these.
        self._owned_ch = np.zeros((b, c), dtype=np.int64)
        self._owned_ch_f = self._owned_ch.reshape(-1)
        self._slab = (
            MessageSlab(b)
            if slab_slots is None
            else MessageSlab(b, slab_slots)
        )
        self._pool = RequestPool(self._table.cand_flat.shape[1])
        self._dv = DeliverQueue()
        #: VCs released since the last routing pass (park/wake): a
        #: pooled request re-tests only when one of its candidates is
        #: set here.  One extra sentinel slot at the end stays False so
        #: the pool's -1 candidate padding (which wraps to index b*cv)
        #: can never trigger a wake.
        self._released = np.zeros(b * cv + 1, dtype=bool)
        #: Per-lane route-request / active-set sequence counters.
        self._rseq = np.zeros(b, dtype=np.int64)
        self._nact = np.zeros(b, dtype=np.int64)
        self._progress = np.zeros(b, dtype=bool)
        #: Reserved VCs across all lanes (transmit-phase early-out).
        self._owned_any = 0

        def flat2(dtype: Any, fill: int = 0) -> Tuple[np.ndarray, np.ndarray]:
            arr = np.full((b, cv), fill, dtype=dtype)
            return arr, arr.reshape(-1)

        # Flit counters are int16 (validated above: message_length fits)
        # to halve the memory traffic of the per-cycle readiness scan.
        # One cell past the end stays "owned" (0): the route kernel's
        # -1 candidate padding wraps to it and reads no free VC.
        self._owner_ext = np.full(b * cv + 1, -1, dtype=np.int64)
        self._owner_ext[b * cv] = 0
        self._owner_f = self._owner_ext[:b * cv]
        self._owner = self._owner_f.reshape(b, cv)
        # occ and inject share one backing pool so the transmit kernel's
        # supply check is a single gather: a VC's supply index is its
        # upstream's occupancy cell, or (pool_offset + own cell) when
        # source-fed — no masked overwrite per cycle.
        n_flat = b * cv
        self._supply_pool = np.zeros(2 * n_flat, dtype=np.int16)
        self._occ_f = self._supply_pool[:n_flat]
        self._occ = self._occ_f.reshape(b, cv)
        self._fin, self._fin_f = flat2(np.int16)
        #: Flits of *released* worms (_flush); the owner's are its ``fin``.
        self._carried, self._carried_f = flat2(np.int64)
        self._up, self._up_f = flat2(np.int32, -1)
        # Absolute supply index for the one big gather in the transmit
        # kernel: the upstream VC's occupancy cell, or the VC's own
        # inject cell (pool offset + abs: ``>= n_flat`` means
        # source-fed); 0 (a valid dummy) when unowned.
        self._up_abs, self._up_abs_f = flat2(np.intp)
        self._inject_f = self._supply_pool[n_flat:]
        self._inject = self._inject_f.reshape(b, cv)
        self._front, self._front_f = flat2(bool)
        self._isdst, self._isdst_f = flat2(bool)

        self._rr_next = np.zeros((b, c), dtype=np.int32)
        self._rr_next_f = self._rr_next.reshape(-1)
        self._active_seq = np.full((b, c), -1, dtype=np.int64)
        self._active_seq_f = self._active_seq.reshape(-1)

        # Mux keys are *packed*: (rank << 6) | vc_class, so one min
        # reduction per channel yields the winning rank AND its VC (low
        # six bits) without a separate argmin pass.  rank < V <= 63.
        if v > 63:
            raise ConfigurationError(
                "the batch backend packs mux keys into 6-bit VC slots; "
                f"{v} virtual channels per physical channel exceed 63"
            )
        #: Successor table for the round-robin cursor: nextv[v] = (v+1)%V.
        self._nextv = np.arange(1, v + 1, dtype=np.int32)
        self._nextv[v - 1] = 0
        vrange = np.arange(v, dtype=np.int16)
        #: mux_keys[r * V + vc] is the packed key of VC ``vc`` on a
        #: channel whose round-robin cursor is r: cyclic rank
        #: (vc - r) mod V, or under strict priority (whose cursors stay
        #: 0) the static rank V - 1 - vc, highest class first.
        if self._priority:
            rank = np.tile(v - 1 - vrange, (v, 1))
        else:
            rank = (vrange[None, :] - vrange[:, None]) % v
        self._mux_keys = (rank << 6 | vrange[None, :]).reshape(-1)

        n = b * cv
        self._n_flat = n
        #: Transmit-kernel scratch: the candidate mask, each channel's
        #: best mux key.
        self._sc_cand = np.zeros(n, dtype=bool)
        self._sc_best = np.empty(b * c, dtype=np.int16)
        #: Routing scratch: first-claimant positions per VC / channel.
        self._sc_claim = np.empty(n + 1, dtype=np.intp)
        # "Still transmitting" mask (owned AND worm not fully received),
        # maintained incrementally — set on allocation (_flush), cleared
        # when the last flit lands (_transmit_kernel) or on release — so
        # the per-cycle ready scan starts from one bool array instead of
        # re-deriving owner >= 0 and fin < L from the wide arrays.
        self._txable_f = np.zeros(n, dtype=bool)

        self._lane_on = np.ones(b, dtype=bool)
        self._n_running = b

        # Deferred allocation/release writes, flushed as one batched
        # scatter per cycle (see _flush).
        #: Allocation blocks: per-round ndarray tuples
        #: (abs, slab slot, up, up_abs, issrc, isdst).
        self._pa_blocks: List[Tuple[np.ndarray, ...]] = []
        #: Release blocks of absolute indices to free.
        self._pend_rel_blocks: List[np.ndarray] = []
        #: (absolute channel, assigned active-set seq) activation blocks.
        self._pa_act_blocks: List[Tuple[np.ndarray, np.ndarray]] = []

        self.cycle = 0
        #: Lane counters, one row per kind (see ``_Lane``): updated by
        #: segment adds and mask ops, never per lane.
        counts = np.zeros((6, b), dtype=np.int64)
        self._lane_cycle = counts[_CYCLE]
        self._generated = counts[_GENERATED]
        self._delivered = counts[_DELIVERED]
        self._flits = counts[_FLITS]
        self._refused = counts[_REFUSED]
        self._last_progress = counts[_PROGRESS]
        self.lanes: List[_Lane] = [
            _Lane(index, seed, self.injection_rate, counts[:, index])
            for index, seed in enumerate(self.seeds)
        ]
        # The three per-lane random streams, lane-stacked: a phase's
        # draws for every lane are one gather (StreamStack).  The draw
        # callbacks read the lane's current generator and close over
        # the lane list only — never the engine, which would tie every
        # finished engine into a reference cycle.
        lanes = self.lanes

        def draw_gaps(index: int, count: int) -> np.ndarray:
            lane = lanes[index]
            return geometric_gaps(
                count, lane.injection_rate, lane.gen_arrivals
            )

        def draw_uniforms(index: int, count: int) -> np.ndarray:
            return lanes[index].gen_destinations.random(count)

        def draw_words(index: int, count: int) -> np.ndarray:
            return lanes[index].gen_routing.integers(
                0, 2**32, size=count, dtype=np.uint32
            )

        width = STREAM_CHUNK + nn
        self._arr_gaps = StreamStack(b, np.int64, draw_gaps, width)
        self._dst_uniforms = StreamStack(b, np.float64, draw_uniforms, width)
        self._tie_words = StreamStack(b, np.uint32, draw_words, width)
        #: Lanes with an open sample, and their deliveries so far as
        #: (lane, latency, hops) blocks in completion order, split per
        #: lane at end_sample.
        self._sampling = np.zeros(b, dtype=bool)
        self._delivery_blocks: List[Tuple[np.ndarray, ...]] = []
        # Lane-fused arrival schedule: every lane's per-node due cycles
        # in one [B, N] array, polled with one mask per cycle instead of
        # one numpy round-trip per lane.  Gaps come from each lane's own
        # stream, so a lane's arrival sequence is independent of the
        # batch composition.
        self._gen_due = np.empty((b, nn), dtype=np.int64)
        self._gen_due_f = self._gen_due.reshape(-1)
        for index in range(b):
            # First arrivals at or after cycle 0 (cf.
            # GeometricArrivals.start).
            self._gen_due[index] = -1 + self._arr_gaps.take_lane(index, nn)
        self._gen_next = int(self._gen_due.min())

    # ------------------------------------------------------------------
    # public driving interface
    # ------------------------------------------------------------------

    @property
    def has_running_lanes(self) -> bool:
        return bool(self._n_running)

    @property
    def running_lane_indices(self) -> List[int]:
        indices: List[int] = np.nonzero(self._lane_on)[0].tolist()
        return indices

    def lane_errors(self) -> Dict[int, DeadlockError]:
        """Deadlock errors recorded per failed lane index."""
        return {
            lane.index: lane.error
            for lane in self.lanes
            if lane.error is not None
        }

    def stop_lane(self, index: int) -> None:
        """Freeze a finished lane; the rest keep advancing in lockstep."""
        self._lane_on[index] = False
        self._n_running = int(self._lane_on.sum())
        # No VC of a frozen lane transmits again (nothing re-arms it:
        # its requests leave the pool below).
        self._txable_f[index * self._cv:(index + 1) * self._cv] = False
        # A frozen lane must stop generating: its due row would
        # otherwise keep matching the poll mask every cycle.
        self._gen_due[index] = _ARR_NEVER
        self._gen_next = int(self._gen_due.min())
        # Pull the lane's pending requests and delivering entries out
        # of the shared pools so the remaining lanes' kernels never
        # revisit them; both freeze on the lane (state_fingerprint
        # still needs them).
        lane = self.lanes[index]
        slots_p, _seqs = self._pool.lane_entries(index)
        if slots_p.shape[0]:
            lane.frozen_pending.extend(slots_p.tolist())
        self._pool.drop_lane(index)
        taken = self._dv.take_lane(index, self._cv)
        if taken.shape[0]:
            off = index * self._cv
            for a in taken.tolist():
                lane.delivering.append(a - off)

    def run_cycles(self, cycles: int) -> None:
        """Advance every running lane by *cycles* lockstep cycles.

        Idle fast-forward mirrors the object engine's: when every running
        lane has nothing in flight, the clock jumps to the earliest
        pending arrival across lanes (the skipped cycles touch no state
        and no rng stream in any lane, so this is identical to stepping
        each of them).
        """
        end = self.cycle + cycles
        lane_on = self._lane_on
        while self.cycle < end:
            if not self._n_running:
                self.cycle = end
                return
            next_due = self._gen_next
            if next_due > self.cycle and not (
                self._generated != self._delivered
            )[lane_on].any():
                target = next_due if next_due < end else end
                self._lane_cycle[lane_on] += target - self.cycle
                self.cycle = target
                if target == end:
                    return
            self.step()

    def step(self) -> None:
        """One lockstep cycle: the object engine's four phases, batched.

        Every per-message consequence (injection completion, release
        bookkeeping, ejection accounting, the epilogue, the winner
        commits) runs as masked array kernels over the slab, and the
        per-lane ones (flit counts, progress, the watchdog) as mask ops
        over the lane counters — no Python runs per lane unless one
        refills a stream, grows the slab, stops or fails.
        """
        cyc = self.cycle
        progress = self._progress
        progress[:] = False
        if self._gen_next <= cyc:
            self._generate(cyc)
        if self._dv.n:
            self._eject(cyc)
        if self._pool.n:
            self._route(cyc)
        if self._owned_any:
            self._flush()
            moves = self._transmit_kernel(cyc)
            if moves is not None:
                self._flits += moves
                np.logical_or(progress, moves, out=progress)
        # Stopped lanes never progress: their stale stamps only send
        # the test below to its second line.
        last = self._last_progress
        last[progress] = cyc
        stalled = last < cyc - self.config.deadlock_threshold
        if stalled.any():
            stalled &= self._lane_on
            stalled &= self._generated != self._delivered
            for b in np.nonzero(stalled)[0].tolist():
                self._fail_lane(b)
        self.cycle = cyc + 1
        self._lane_cycle[self._lane_on] = cyc + 1

    def advance_streams(self, index: int) -> None:
        """Fresh random streams for one lane (between sampling periods)."""
        lane = self.lanes[index]
        lane.rng.advance_epoch()
        lane.refresh_streams()
        for stack in (self._arr_gaps, self._dst_uniforms, self._tie_words):
            stack.reset(index)
        # Re-draw the lane's pending gaps from the fresh stream
        # (cf. GeometricArrivals.reseed).
        self._gen_due[index] = self.cycle + self._arr_gaps.take_lane(
            index, self._num_nodes
        )
        self._gen_next = int(self._gen_due.min())

    # -- sampling --------------------------------------------------------

    def start_sample(self, index: int) -> None:
        lane = self.lanes[index]
        assert lane.sample is None, "a sample is already active"
        lane.sample = SampleRecord(lane.cycle)
        lane.sample_flits_base = lane.flits_moved_total
        lane.sample_generated_base = lane.generated_total
        lane.sample_refused_base = lane.refused
        lane.sample_vc_base = self.vc_class_totals(index)
        self._sampling[index] = True

    def end_sample(self, index: int) -> SampleRecord:
        lane = self.lanes[index]
        sample = lane.sample
        assert sample is not None, "no sample is active"
        # Materialize the lane's share of the buffered delivery blocks
        # (the completion kernel never touches the record itself) and
        # leave the other lanes' rows for their own end_sample.
        blocks = self._delivery_blocks
        if blocks:
            lanes_d, lat, hops = (
                np.concatenate(parts) for parts in zip(*blocks)
            )
            mine = lanes_d == index
            sample.extend_deliveries(lat[mine].tolist(), hops[mine].tolist())
            rest = ~mine
            blocks.clear()
            if rest.any():
                blocks.append((lanes_d[rest], lat[rest], hops[rest]))
        self._sampling[index] = False
        sample.cycles = lane.cycle - sample.start_cycle
        sample.flits_moved = (
            lane.flits_moved_total - lane.sample_flits_base
        )
        sample.generated = (
            lane.generated_total - lane.sample_generated_base
        )
        sample.refused = lane.refused - lane.sample_refused_base
        sample.vc_usage = [
            total - base
            for total, base in zip(
                self.vc_class_totals(index), lane.sample_vc_base
            )
        ]
        lane.sample = None
        return sample

    # ------------------------------------------------------------------
    # phase 1: generation (lane-fused, straight into the slab)
    # ------------------------------------------------------------------

    def _generate(self, cycle: int) -> None:
        """Lane-fused generation straight into the message slab.

        One due-mask poll over every lane's per-node schedule; the due
        lanes' gap redraws and destination uniforms are one gather each
        from the stream stacks (each lane's own streams, counts
        determined only by its own schedule — composition-independent),
        then vectorized injection-limit admission against the
        outstanding array (due nodes are unique within a poll because
        gaps are >= 1, so counts cannot interact within a cycle), then
        one block write of the admitted messages' slab columns and
        route requests, slots popped and ids numbered for all lanes at
        once.  No message objects are built.

        Frozen lanes hold _ARR_NEVER rows and never match the mask.
        Due node ids come out in ascending node order per lane (the
        object engine's heap yields heap order — one of the differences
        behind the statistical contract).
        """
        due_f = self._gen_due_f
        hits = np.nonzero(due_f <= cycle)[0]
        n = self._num_nodes
        lanes_h = hits // n
        nodes_h = hits - lanes_h * n
        seg = segments(lanes_h)
        due_f[hits] = cycle + self._arr_gaps.take(seg)
        ub = self._dst_uniforms.take(seg)
        self._gen_next = int(self._gen_due.min())
        # The destination transform is elementwise per draw, so it —
        # and everything downstream: interning gathers, admission, the
        # slab/pool block writes — runs as one batch keyed by the
        # lane-id column.
        dsts = destinations_from_uniforms(self._dest_table, nodes_h, ub)
        act = dsts >= 0
        if not act.any():
            return
        lb = lanes_h[act]
        srcs = nodes_h[act]
        dd = dsts[act]
        key = srcs * n + dd
        rows = self._ic_row[key]
        miss = rows < 0
        if miss.any():
            self._intern_pairs(np.unique(key[miss]))
            rows = self._ic_row[key]
        cls = self._ic_cls[key]
        limit = self.config.injection_limit
        if limit is not None:
            # Admission keys are unique within the batch (gaps >= 1
            # mean one arrival per node per lane-cycle), so the masked
            # increment below cannot self-interact.
            okey = lb * self._outst.shape[1] + cls * n + srcs
            admit = self._outst_f[okey] < limit
            if not admit.all():
                self._refused += np.bincount(lb[~admit], minlength=self._b)
                lb = lb[admit]
                if not lb.shape[0]:
                    return
                srcs = srcs[admit]
                dd = dd[admit]
                key = key[admit]
                rows = rows[admit]
                cls = cls[admit]
                okey = okey[admit]
            self._outst_f[okey] += 1
        slab = self._slab
        seg = segments(lb)
        slots = slab.alloc(seg)
        mids = self._draw_seqs(seg, self._generated)
        seqs = self._draw_seqs(seg, self._rseq)
        # Column views are read after alloc() — growth replaces them
        # but preserves slot numbers, so `g` stays valid.
        g = lb * slab.capacity + slots
        slab.src_f[g] = srcs
        slab.dst_f[g] = dd
        slab.dist_f[g] = self._ic_dist[key]
        slab.length_f[g] = self._length
        slab.ej_f[g] = 0
        slab.head_f[g] = srcs
        slab.head_flat_f[g] = -1
        slab.tail_flat_f[g] = -1
        slab.src_flat_f[g] = -1
        slab.row_f[g] = rows
        slab.born_f[g] = cycle
        slab.wait_f[g] = cycle
        slab.mid_f[g] = mids
        slab.cls_f[g] = cls
        slab.live_f[g] = True
        cf = self._table.cand_flat[rows]
        cand_abs = np.where(
            cf >= 0, cf + (lb * self._cv)[:, None], -1
        )
        self._pool.extend(lb, slots, seqs, cand_abs)

    def _intern_pairs(self, keys: np.ndarray) -> None:
        """Intern (src, dst) pairs: route row, class id.

        Amortized cold path — each pair runs the injection-time
        algorithm callbacks exactly once, like the object engine's
        memoization; new message classes claim a column block of the
        outstanding array, whose width doubles when they run out
        (e-cube has one class per first-hop VC: 336 on an 8x8 torus).
        """
        algorithm = self.algorithm
        table = self._table
        n = self._num_nodes
        for key in keys.tolist():
            src, dst = divmod(key, n)
            state = algorithm.new_state(src, dst)
            self._ic_row[key] = table.row_for(src, dst, state)
            msg_class = algorithm.message_class(src, dst, state)
            cid = self._class_ids.get(msg_class)
            if cid is None:
                cid = len(self._class_list)
                self._class_ids[msg_class] = cid
                self._class_list.append(msg_class)
                width = self._outst.shape[1]
                if (cid + 1) * n > width:
                    wide = np.zeros((self._b, 2 * width), dtype=np.int64)
                    wide[:, :width] = self._outst
                    self._outst = wide
                    self._outst_f = wide.reshape(-1)
            self._ic_cls[key] = cid

    def _route(self, cycle: int) -> None:
        """Round-based routing/VC allocation over the woken requests.

        Park/wake, vectorized: a pooled request re-tests only when it
        has never been tested or some cached candidate VC was released
        since the last pass (a VC only turns free through a release, so
        skipped requests provably have zero free candidates — and since
        blocked requests consume no rng, spurious wakes are
        draw-for-draw invisible, exactly like the object engine's wake
        lists).

        The woken subset is ordered by (lane, seq) — the object engine's
        sequential scan order, one packed-key sort (``lane_order``) —
        then each round evaluates candidate freeness against the
        flushed owner array, applies the selection policy with per-lane
        batched tie-break draws, resolves same-VC conflicts by first
        occurrence, and commits the winners with masked scatters only
        (owner/activation writes deferred to _flush, slab columns
        updated in place).  Requests with no free candidate park.

        Rng draws group per lane and depend only on that lane's own
        request state (lanes never contend for each other's VCs), so a
        lane's results are independent of the batch composition.
        """
        pool = self._pool
        m = pool.n
        cand_cols = pool.cand[:, :m]
        blk = pool.blocked[:m]
        # -1 candidate padding wraps to _released's False sentinel;
        # tombstones carry DEAD_STAMP and never wake.
        released = self._released
        wake = released[cand_cols].any(axis=0)
        released.fill(False)
        wake &= blk != DEAD_STAMP
        wake |= blk < 0
        test = np.nonzero(wake)[0]
        if not test.shape[0]:
            return
        lanes_all = pool.lane[:m]
        order = test[
            lane_order(
                lanes_all[test],
                pool.seq[:m][test],
                self._b,
                int(self._rseq.max()),
            )
        ]
        lanes_p = lanes_all[order]
        slots_p = pool.slot[:m][order]
        slab = self._slab
        g_p = lanes_p * slab.capacity + slots_p
        offs = lanes_p * self._cv
        ups = slab.head_flat_f[g_p].astype(np.int64)
        table = self._table
        v = self._v
        # Padded (-1) candidates wrap to the owner array's sentinel
        # cell, which always reads owned.
        owner = self._owner_ext
        owned_ch_f = self._owned_ch_f
        claim = self._sc_claim
        policy = self.config.selection_policy
        progress = self._progress
        blocked = np.zeros(order.shape[0], dtype=bool)
        # The requests still routing this pass, as indices into the
        # sorted arrays, their rows and their candidates.
        alive = np.arange(order.shape[0], dtype=np.intp)
        r = slab.row_f[g_p]
        absc = cand_cols[:, order].T
        while True:
            # Round start: land the previous round's reservations (and
            # any pending ejection releases) in the owner array.
            self._flush()
            free = owner[absc] < 0
            nfree = free.sum(axis=1)
            has = nfree > 0
            if not has.all():
                blocked[alive[~has]] = True
                alive = alive[has]
                if not alive.shape[0]:
                    break
                r = r[has]
                free = free[has]
                nfree = nfree[has]
                absc = absc[has]
            if policy == "first":
                k = free.argmax(axis=1)
            elif policy == "random":
                t = tiebreaks(self._tie_words, lanes_p[alive], nfree)
                rank = free.cumsum(axis=1) - 1
                k = (free & (rank == t[:, None])).argmax(axis=1)
            else:  # least_multiplexed
                # abs // V = lane * C + channel: loads gather without a
                # second table lookup.
                loads = np.where(
                    free, owned_ch_f[absc // v], _LOAD_INF
                )
                tie = loads == loads.min(axis=1)[:, None]
                t = tiebreaks(
                    self._tie_words, lanes_p[alive], tie.sum(axis=1)
                )
                rank = tie.cumsum(axis=1) - 1
                k = (tie & (rank == t[:, None])).argmax(axis=1)
            na = alive.shape[0]
            pos = np.arange(na, dtype=np.intp)
            chosen = absc[pos, k]
            # First occurrence per VC wins; requests are ordered by
            # (lane, route_seq), so this is the sequential scan order.
            claim[chosen] = na
            np.minimum.at(claim, chosen, pos)
            win = claim[chosen] == pos
            jw = alive[win]
            kw = k[win]
            ca = chosen[win]
            ro = r[win]
            g_w = g_p[jw]
            # Reserved-VC counts and 0->1 activations: the first winner
            # on each idle channel, kept in request order.
            ch_abs = ca // v
            idle = np.nonzero(owned_ch_f[ch_abs] == 0)[0]
            np.add.at(owned_ch_f, ch_abs, 1)
            if idle.shape[0]:
                ch_idle = ch_abs[idle]
                claim[ch_idle] = idle.shape[0]
                np.minimum.at(claim, ch_idle, pos[:idle.shape[0]])
                idx = idle[claim[ch_idle] == pos[:idle.shape[0]]]
                self._pa_act_blocks.append(
                    (
                        ch_abs[idx],
                        self._draw_seqs(
                            segments(lanes_p[jw[idx]]), self._nact
                        ),
                    )
                )
            self._owned_any += int(jw.shape[0])
            # Allocation scatters queue as one block (landed by the
            # next _flush); successors gather from the table with a
            # scalar fallback for first-traversal interning.
            isdst = table.term[ro, kw]
            up = ups[jw]
            src_mask = up < 0
            up_abs = np.where(src_mask, 0, offs[jw] + up)
            self._pa_blocks.append(
                (ca, slots_p[jw], up, up_abs, src_mask, isdst)
            )
            flat_w = ca - offs[jw]
            srows = table.succ[ro, kw]
            nonterm = np.nonzero(~isdst)[0]
            miss = nonterm[srows[nonterm] < 0]
            for i, row, k in zip(
                miss.tolist(), ro[miss].tolist(), kw[miss].tolist()
            ):
                srows[i] = table.successor(row, k)
            slab.row_f[g_w[nonterm]] = srows[nonterm]
            slab.head_f[g_w] = table.cand_dst[ro, kw]
            slab.head_flat_f[g_w] = flat_w
            sm = np.nonzero(src_mask)[0]
            slab.src_flat_f[g_w[sm]] = flat_w[sm]
            slab.tail_flat_f[g_w[sm]] = flat_w[sm]
            progress[lanes_p[jw]] = True
            if win.all():
                break
            lose = ~win
            alive = alive[lose]
            r = r[lose]
            absc = absc[lose]
        # Winners tombstone in place; the blocked park, stamped with
        # this cycle (a later release of a candidate wakes them);
        # untested parked entries stay put untouched.  Compaction is
        # amortized: only once tombstones reach a quarter of the pool.
        pool.blocked[:m][order[blocked]] = cycle
        pool.kill(order[~blocked])
        if pool.dead * 4 > pool.n:
            pool.prune()

    @staticmethod
    def _draw_seqs(seg: Segments, counter: np.ndarray) -> np.ndarray:
        """Per-lane consecutive sequence numbers for the lane-sorted ids
        of *seg* (their ``segments``), advancing *counter* in place.

        Used for message ids, route-request seqs (epilogue order) and
        active-set seqs (commit order): each lane's entries take
        consecutive numbers from its own counter, exactly a per-lane
        sequential increment order.
        """
        seqs = counter[seg.ids] + seg.within
        counter[seg.lanes] += seg.counts
        return seqs

    def _epilogue(
        self,
        ev_b: np.ndarray,
        ev_flat: np.ndarray,
        ev_slot: np.ndarray,
        ev_up: np.ndarray,
        ev_code: np.ndarray,
        cycle: int,
    ) -> None:
        """Apply the move consequences as masked scatters over the slab.

        Events arrive sorted by (lane, active-set seq) — the object
        engine's poll order — so the per-lane route-request seq draws
        below assign consecutive numbers in exactly that order;
        every other consequence (delivery registration, injection
        completion, release) is order-free bookkeeping.
        """
        slab = self._slab
        g = ev_b * slab.capacity + ev_slot
        r0 = np.nonzero(ev_code & 1)[0]
        if r0.shape[0]:
            rows0 = slab.row_f[g[r0]]
            cf = self._table.cand_flat[rows0]
            nb = ev_b[r0]
            cand_abs = np.where(
                cf >= 0, cf + (nb * self._cv)[:, None], -1
            )
            self._pool.extend(
                nb,
                ev_slot[r0].astype(np.int32),
                self._draw_seqs(segments(nb), self._rseq),
                cand_abs,
            )
            slab.wait_f[g[r0]] = cycle
        r1 = np.nonzero(ev_code & 2)[0]
        if r1.shape[0]:
            self._dv.extend(ev_b[r1] * self._cv + ev_flat[r1])
        if self.config.injection_limit is not None:
            r2 = np.nonzero(ev_code & 4)[0]
            if r2.shape[0]:
                g2 = g[r2]
                okey = (
                    ev_b[r2] * self._outst.shape[1]
                    + slab.cls_f[g2].astype(np.int64) * self._num_nodes
                    + slab.src_f[g2]
                )
                np.subtract.at(self._outst_f, okey, 1)
        r3 = np.nonzero(ev_code & 8)[0]
        if r3.shape[0]:
            rel = ev_b[r3] * self._cv + ev_up[r3]
            self._pend_rel_blocks.append(rel)
            self._released[rel] = True
            np.subtract.at(self._owned_ch_f, rel // self._v, 1)
            self._owned_any -= int(r3.shape[0])
            # Releases are tail-order: the freed upstream VC was the
            # worm's tail, and the event's target VC is the next link.
            slab.tail_flat_f[g[r3]] = ev_flat[r3]

    def _eject(self, cycle: int) -> None:
        """Array-at-once ejection over the deliver queue.

        Ejection runs before transmission, so every buffered flit is
        settled and consumed, and the freed slots are visible to this
        same cycle's transmission — as in Engine._eject.  The
        per-message ejected count lives in the slab (gathered through
        the owner array, which stores slots), and completed messages
        retire through one masked kernel (_complete).  Lanes that
        ejected have progressed.
        """
        dv = self._dv
        ea = dv.abs[:dv.n]
        occ_f = self._occ_f
        settled = occ_f[ea]
        pos_idx = np.nonzero(settled > 0)[0]
        pa = ea[pos_idx]
        ps = settled[pos_idx]
        occ_f[pa] = 0
        slab = self._slab
        gp = (pa // self._cv) * slab.capacity + self._owner_f[pa]
        ej_new = slab.ej_f[gp] + ps
        slab.ej_f[gp] = ej_new
        self._progress[pa // self._cv] = True
        comp = np.nonzero(ej_new >= self._length)[0]
        if comp.shape[0]:
            self._complete(cycle, pa[comp], gp[comp])
            keep = np.ones(dv.n, dtype=bool)
            keep[pos_idx[comp]] = False
            dv.keep(keep)

    def _complete(
        self, cycle: int, comp_abs: np.ndarray, g: np.ndarray
    ) -> None:
        """Retire fully-ejected messages: release the last VC, free the
        slot, buffer the sampling lanes' delivery stats as one block.

        The stable lane sort preserves each lane's deliver-queue
        registration order, the order sample deliveries are reported
        in.
        """
        slab = self._slab
        self._pend_rel_blocks.append(comp_abs)
        self._released[comp_abs] = True
        np.subtract.at(self._owned_ch_f, comp_abs // self._v, 1)
        self._owned_any -= int(comp_abs.shape[0])
        slab.live_f[g] = False
        bo = comp_abs // self._cv
        order = np.argsort(bo, kind="stable")
        go = g[order]
        bo = bo[order]
        seg = segments(bo)
        self._delivered[seg.lanes] += seg.counts
        slab.release(seg, (go - bo * slab.capacity).astype(np.int32))
        sampled = self._sampling[bo]
        if sampled.any():
            lat = cycle - slab.born_f[go]
            hops = slab.dist_f[go].astype(np.int64)
            if not sampled.all():
                bo = bo[sampled]
                lat = lat[sampled]
                hops = hops[sampled]
            self._delivery_blocks.append((bo, lat, hops))

    def _flush(self) -> None:
        """Apply the deferred allocation/release writes as array scatters.

        Releases apply before allocations so a VC freed in one cycle and
        re-reserved the next lands owned, its worm's flits retired into
        ``carried`` before ``fin`` restarts.  Stale per-VC fields on
        *free* cells (fin/front/up from a previous owner) are harmless:
        every kernel read of them is masked by ``owner >= 0``.
        """
        rel_blocks = self._pend_rel_blocks
        if rel_blocks:
            rel = (
                rel_blocks[0]
                if len(rel_blocks) == 1
                else np.concatenate(rel_blocks)
            )
            self._owner_f[rel] = -1
            self._txable_f[rel] = False
            self._carried_f[rel] += self._fin_f[rel]
            rel_blocks.clear()
        blocks = self._pa_blocks
        if blocks:
            if len(blocks) == 1:
                self._flush_alloc(*blocks[0])
            else:
                self._flush_alloc(
                    *(
                        np.concatenate(parts)
                        for parts in zip(*blocks)
                    )
                )
            blocks.clear()
        act_blocks = self._pa_act_blocks
        if act_blocks:
            if len(act_blocks) == 1:
                chs, seqs = act_blocks[0]
            else:
                chs, seqs = (
                    np.concatenate(parts)
                    for parts in zip(*act_blocks)
                )
            self._active_seq_f[chs] = seqs
            act_blocks.clear()

    def _flush_alloc(
        self,
        a: np.ndarray,
        slots: np.ndarray,
        up: np.ndarray,
        up_abs: np.ndarray,
        src: np.ndarray,
        isdst: np.ndarray,
    ) -> None:
        """Land one batch of allocation scatters in the flat arrays."""
        self._owner_f[a] = slots
        self._txable_f[a] = True
        self._fin_f[a] = 0
        self._up_f[a] = up.astype(np.int32)
        # Source-fed VCs gather supply from their own inject cell in the
        # pool's upper half (see _supply_pool).
        self._up_abs_f[a] = np.where(src, a + self._n_flat, up_abs)
        self._front_f[a] = True
        # The upstream VC stops being the worm front (its head moved
        # on); disjoint from `a` — a message allocates at most one
        # hop per cycle, so an upstream hop predates this batch.
        self._front_f[up_abs[~src]] = False
        self._isdst_f[a] = isdst
        self._inject_f[a[src]] = self._length

    # ------------------------------------------------------------------
    # phase 4: transmission (the vectorized core)
    # ------------------------------------------------------------------

    def _transmit_kernel(self, cycle: int) -> Optional[np.ndarray]:
        """Array-at-once conservative transmit over every lane and channel.

        Readiness of a VC (owned, worm not fully through, target space,
        a settled upstream flit or a source flit to inject) is evaluated
        simultaneously against the post-ejection state; per channel, the
        ready VC minimizing the cyclic round-robin rank (or the strict
        class priority) moves one flit.  Both match the object engine's
        sequential scan exactly because conservative flow control makes
        the scan's outcome order-invariant (see the module docstring).

        The sparse move consequences go through _epilogue; the return
        value is the per-lane flit count (None when nothing moved).
        """
        b = self._b
        c = self._c
        v = self._v
        length = self._length
        # Candidates: VCs still receiving (owned, worm not fully
        # through) with target space; ready ones also have supply — the
        # settled upstream occupancy, or the remaining source flits on
        # source-fed VCs, one gather from the shared pool (a VC's
        # supply index points at its upstream's occupancy cell or its
        # own inject cell, set at allocation time).
        cand = self._sc_cand
        np.less(self._occ_f, self._cap, out=cand)
        np.logical_and(cand, self._txable_f, out=cand)
        ready = np.flatnonzero(cand)
        ready = ready[self._supply_pool[self._up_abs_f[ready]] > 0]
        if not ready.shape[0]:
            return None

        # Per-channel winner: the ready VC with the smallest packed mux
        # key; a min per channel delivers the rank and (low six bits)
        # the winning VC, and channels left at the sentinel have none.
        ch = ready // v  # absolute channel: b*C + c
        keys = self._mux_keys[self._rr_next_f[ch] * v + (ready - ch * v)]
        best = self._sc_best
        best.fill(_NO_KEY)
        np.minimum.at(best, ch, keys)
        mv = np.flatnonzero(best < _NO_KEY)
        vm = best[mv] & 63
        abs_m = mv * v + vm

        # -- commit: target VC side (nothing stamped or counted per
        # flit: ``fin`` is the accounting, retired at release) ---------
        self._occ_f[abs_m] += 1
        fin_new = self._fin_f[abs_m] + 1
        self._fin_f[abs_m] = fin_new
        self._txable_f[abs_m[fin_new == length]] = False
        if not self._priority:
            self._rr_next_f[mv] = self._nextv[vm]

        # -- commit: upstream / source side, one decrement through the
        # supply pool whichever feeds the VC ---------------------------
        pool = self._supply_pool
        sup = self._up_abs_f[abs_m]
        left = pool[sup] - 1
        pool[sup] = left
        n_flat = self._n_flat

        bm = mv // c
        lane_moves = np.bincount(bm, minlength=b)

        # -- sparse move consequences ---------------------------------
        # Events pack into one int8 code per move (bit0 route request,
        # bit1 delivery, bit2 injection-complete, bit3 upstream release)
        # so the epilogue masks one array; head flits raise the first
        # two, moves that empty their supply the last two.
        code = np.zeros(abs_m.shape[0], dtype=np.int8)
        hd = np.nonzero(fin_new == 1)[0]
        if hd.shape[0]:
            ha = abs_m[hd]
            code[hd] = np.where(self._isdst_f[ha], 2, self._front_f[ha])
        dry = np.nonzero(left == 0)[0]
        if dry.shape[0]:
            src = sup[dry] >= n_flat
            code[dry[src]] |= 4
            # An emptied VC has passed on ``fin - occ == fin`` flits.
            rel = dry[~src]
            code[rel[self._fin_f[sup[rel]] >= length]] |= 8
        idx = np.nonzero(code)[0]
        if idx.shape[0] == 0:
            return lane_moves
        # Object-engine order: events fire as their channels are polled,
        # in ascending active-set insertion order within each lane.
        bi = bm[idx]
        order = lane_order(
            bi, self._active_seq_f[mv[idx]], b, int(self._nact.max())
        )
        sel = idx[order]
        bs = bi[order]
        abs_s = abs_m[sel]
        self._epilogue(
            bs,
            abs_s - bs * self._cv,
            self._owner_f[abs_s],
            self._up_f[abs_s].astype(np.int64),
            code[sel],
            cycle,
        )
        return lane_moves

    # ------------------------------------------------------------------
    # shared bookkeeping
    # ------------------------------------------------------------------

    def _fail_lane(self, b: int) -> None:
        """Record a deadlock on one lane and freeze it; others continue.

        The report reads the lane's blocked requests from the shared
        pool (before ``stop_lane`` drops them) and their rows from the
        slab: what a message waits on is its route-table row, what it
        holds the VCs it owns once deferred writes have landed.
        """
        lane = self.lanes[b]
        self._flush()
        v = self._v
        owner = self._owner[b]
        owned = np.nonzero(owner >= 0)[0]
        held: Dict[int, List[Tuple[int, int]]] = {}
        for f, slot in zip(owned.tolist(), owner[owned].tolist()):
            held.setdefault(slot, []).append(divmod(f, v))
        slab = self._slab
        cand_flat = self._table.cand_flat
        slots_p, _seqs = self._pool.lane_entries(b)
        rows: List[BlockedMessage] = []
        for slot in slots_p.tolist():
            mv = slab.view(b, slot)
            rows.append(BlockedMessage(
                mv.msg_id,
                mv.src,
                mv.dst,
                mv.head_node,
                held.get(slot, []),
                [divmod(f, v) for f in cand_flat[mv.route_row].tolist()
                 if f >= 0],
                queued_at=mv.wait_since,
            ))
        lane.error = deadlock_error(
            rows,
            self.config.deadlock_threshold,
            self.cycle,
            lane.in_flight,
            self.algorithm.name,
            where=f" [batch lane {b}, seed {lane.seed}]",
        )
        self.stop_lane(b)

    # ------------------------------------------------------------------
    # introspection (mirrors the object engine's helpers, per lane)
    # ------------------------------------------------------------------

    def _carried_row(self, index: int) -> np.ndarray:
        """Lifetime flits per VC of one lane, after a ``_flush()``:
        retired worms' plus the live ``fin`` of owned cells."""
        return self._carried[index] + np.where(
            self._owner[index] >= 0, self._fin[index], 0
        )

    def vc_class_totals(self, index: int) -> List[int]:
        """Lifetime flits carried per VC class in one lane
        (``_flush()``es first: which ``fin`` is live reads ``owner``)."""
        self._flush()
        carried = self._carried_row(index).reshape(self._c, self._v)
        return [int(x) for x in carried.sum(axis=0)]

    def network_flits(self, index: int) -> int:
        """Flits currently buffered in one lane's network (no
        ``_flush()`` needed: ``occ`` writes are never deferred)."""
        return int(self._occ[index].sum())

    def _sync_injected(self, index: int) -> None:
        """Fill one lane's slab ``inj`` column (flits that have left the
        source), which no move writes, from the network state: a
        message still holding its first-hop VC has injected ``length``
        minus that VC's inject cell; one that released it, all its
        flits; one that never held one (``src_flat`` -1), none.
        ``_flush()``es first: which VCs a message holds reads
        ``owner``."""
        self._flush()
        slab = self._slab
        src = slab.src_flat[index].astype(np.int64)
        held = src >= 0
        a = index * self._cv + np.where(held, src, 0)
        own = self._owner_f[a] == np.arange(slab.capacity)
        left = np.where(held & own, self._inject_f[a], 0)
        slab.inj[index] = np.where(held, self._length - left, 0)

    def _iter_live_messages(self, lane: _Lane) -> Iterator[Any]:
        # The slab's live slots are exactly the undelivered messages —
        # the set Engine._iter_live_messages walks via queue/heap/
        # parked/owners — and the yielded MessageView exposes the same
        # attribute names.
        self._sync_injected(lane.index)
        return self._slab.iter_live(lane.index)

    def conservation_check(self, index: int) -> bool:
        """Invariant: every admitted flit is accounted for, per lane."""
        self._sync_injected(index)
        lane = self.lanes[index]
        length = self._length
        expected = lane.generated_total * length
        slab = self._slab
        live = slab.live[index]
        at_source = int(
            (slab.length[index][live] - slab.inj[index][live]).sum()
        )
        ejected = int(slab.ej[index][live].sum())
        delivered_flits = lane.delivered_total * length
        return expected == (
            at_source + self.network_flits(index) + ejected
            + delivered_flits
        )

    def state_fingerprint(self, index: int) -> Tuple:
        """Per-lane digest of everything the lane's future depends on.

        Equal for equal lane states: the composition and golden tests
        compare it across batch groupings and commits.  Laid out like
        ``Engine.state_fingerprint`` minus the last arrival / departure
        / transmit cycles, which nothing here reads or keeps; flits out
        (``fin - occ``), ``carried`` and the per-channel move count are
        derived.  Not comparable with an object engine's digest (other
        rng streams, other schedules).
        """
        self._sync_injected(index)
        lane = self.lanes[index]
        b = index
        v = self._v
        # Owner cells hold slab slots; map them to the per-lane message
        # ids the object fingerprint reports.
        own_row = self._owner[b]
        own_l = np.where(
            own_row >= 0,
            self._slab.mid[b][own_row.clip(min=0)],
            -1,
        ).tolist()
        occ_l = self._occ[b].tolist()
        fin_l = self._fin[b].tolist()
        carried = self._carried_row(b)
        car_l = carried.tolist()
        chm_l = carried.reshape(self._c, v).sum(axis=1).tolist()
        rr_l = self._rr_next[b].tolist()
        channels_fp = []
        for c in range(self._c):
            base = c * v
            vcs_fp = []
            for vc_class in range(v):
                f = base + vc_class
                owner_id = own_l[f]
                if owner_id >= 0 or car_l[f]:
                    vcs_fp.append(
                        (
                            vc_class,
                            owner_id if owner_id >= 0 else None,
                            occ_l[f],
                            fin_l[f],
                            fin_l[f] - occ_l[f],
                            car_l[f],
                        )
                    )
            channels_fp.append((chm_l[c], rr_l[c], tuple(vcs_fp)))
        slab = self._slab
        slots_p, _seqs = self._pool.lane_entries(b)
        mid_row = slab.mid[b]
        pending = sorted(
            int(mid_row[s])
            for s in slots_p.tolist() + lane.frozen_pending
        )
        rep_state = self._table.rep_state
        messages_fp = tuple(
            sorted(
                (
                    int(mid_row[s]),
                    int(slab.src[b][s]),
                    int(slab.dst[b][s]),
                    int(slab.born[b][s]),
                    int(slab.length[b][s] - slab.inj[b][s]),
                    int(slab.ej[b][s]),
                    int(slab.head[b][s]),
                    route_state_fingerprint(
                        rep_state[int(slab.row[b][s])]
                    ),
                )
                for s in np.nonzero(slab.live[b])[0].tolist()
            )
        )
        # Running lanes' delivering flats live in the shared queue
        # (registration order); stopped lanes froze theirs locally.
        da = self._dv.abs[:self._dv.n]
        dflats = (
            (da[da // self._cv == b] - b * self._cv).tolist()
            + lane.delivering
        )
        delivering = tuple(
            (f // v, f % v) for f in dflats
        )
        next_due = int(self._gen_due[b].min())
        # repr keeps the generator-state dicts hashable.  Arrivals and
        # destinations report the physical generator (the refill
        # schedule is part of the lane's state); the routing stream,
        # whose prefetch is an implementation detail of tiebreaks(),
        # reports its logical position.
        rng_fp: Tuple[Any, ...] = (
            repr(lane.gen_arrivals.bit_generator.state),
            repr(lane.gen_destinations.bit_generator.state),
            repr(
                lane.rng.numpy_state_after(
                    STREAM_ROUTING, self._tie_words.consumed(b)
                )
            ),
        )
        # Rebuild the outstanding-injection items from the _outst array
        # (the object controller deletes keys that reach zero).
        nzo = np.nonzero(self._outst[b])[0]
        nn = self._num_nodes
        outst_items: Tuple[Any, ...] = tuple(
            sorted(
                (
                    (int(k) % nn, self._class_list[int(k) // nn]),
                    int(self._outst[b][k]),
                )
                for k in nzo.tolist()
            )
        )
        return (
            lane.cycle,
            lane.generated_total,  # the next message id
            lane.flits_moved_total,
            lane.generated_total,
            lane.delivered_total,
            lane.in_flight,
            next_due,
            lane.generated_total,  # every generated message was admitted
            lane.refused,
            outst_items,
            tuple(pending),
            messages_fp,
            delivering,
            tuple(channels_fp),
        ) + rng_fp


__all__ = ["BatchEngine"]

"""The cycle-driven flit-level network engine.

Each simulated cycle has four phases:

1. **Generation** — geometric arrivals produce messages; the
   input-buffer-limit congestion control admits or refuses each one.
2. **Ejection** — flits that settled in destination buffers last cycle
   are consumed (before this cycle's transfers, so the final hop streams
   at full rate); tail consumption completes the message and releases its
   last channel.
3. **Routing / virtual-channel allocation** — every message whose head flit
   sits at a router (or at its source) and lacks a next channel asks its
   routing algorithm for candidate (link, virtual-channel-class) pairs and
   tries to reserve a free one.  Requests are served in FIFO order, the
   paper's starvation-avoidance discipline; among several free candidates
   the configurable selection policy picks one (default: the link whose
   channel currently multiplexes the fewest worms).
4. **Transmission** — every physical channel moves at most one flit,
   round-robin among its ready virtual channels (the paper's
   time-multiplexed bandwidth sharing with f_t = 1).

Virtual channels are released as the tail drains past them, which is what
makes the same engine model wormhole (1-flit buffers: a blocked worm spans
many channels), virtual cut-through (packet-sized buffers: a blocked packet
collapses into one buffer) and store-and-forward (packet-sized buffers plus
the full-packet-before-forwarding rule) — the three switching techniques
the paper compares in Section 3.4.

A watchdog raises :class:`~repro.util.errors.DeadlockError` if traffic is
in flight but nothing has moved for a long time; all six paper algorithms
are deadlock-free, so it fires only on buggy or deliberately broken
algorithms (it is exercised in the test suite with one of those).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from heapq import heappop, heappush
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Sized,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer
    from repro.traffic.trace import MessageTrace

from repro.network.fabric import Fabric
from repro.network.message import Message
from repro.network.physical_channel import PhysicalChannel
from repro.network.virtual_channel import VirtualChannel
from repro.routing.base import RoutingAlgorithm
from repro.routing.tables import flat_candidates, route_table
from repro.simulator.config import SimulationConfig
from repro.simulator.injection import InjectionController
from repro.simulator.sanitizer import WaitForGraph
from repro.stats.counters import SampleRecord
from repro.topology.base import Topology
from repro.traffic.arrivals import GeometricArrivals
from repro.traffic.base import TrafficPattern
from repro.traffic.load import offered_load_to_rate
from repro.util.errors import ConfigurationError, DeadlockError
from repro.util.fingerprint import state_fingerprint as route_state_fingerprint
from repro.util.rng import (
    STREAM_ARRIVALS,
    STREAM_DESTINATIONS,
    STREAM_ROUTING,
    RngStreams,
)

#: Sort key for re-poll lists (ascending active-set insertion order).
_BY_ACTIVE_SEQ = attrgetter("active_seq")


class Engine:
    """One simulation instance: network state plus the cycle loop."""

    def __init__(
        self,
        config: SimulationConfig,
        topology: Optional[Topology] = None,
        algorithm: Optional[RoutingAlgorithm] = None,
        traffic: Optional[TrafficPattern] = None,
        trace: Optional["MessageTrace"] = None,
    ) -> None:
        self.config = config
        self.topology = topology if topology is not None else (
            config.build_topology()
        )
        self.algorithm = algorithm if algorithm is not None else (
            config.build_algorithm(self.topology)
        )
        # Candidate sets are memoised in one place, as flat VC indices
        # (repro.routing.tables); an algorithm built here by name shares
        # its table with every other such engine of the process.
        self._table = route_table(
            self.algorithm, config.algorithm if algorithm is None else None
        )
        self._route_entries = self._table.entries
        self.traffic = traffic if traffic is not None else (
            config.build_traffic(self.topology)
        )
        self.fabric = Fabric(
            self.topology,
            self.algorithm.num_virtual_channels,
            config.effective_buffer_depth(),
        )
        self.rng = RngStreams(config.seed)
        self.injection_rate = offered_load_to_rate(
            config.offered_load,
            self.topology,
            config.message_length,
            self.traffic.mean_distance(),
        )
        self.arrivals = GeometricArrivals(
            self.topology.num_nodes, self.injection_rate
        )
        self.arrivals.start(0, self.rng.stream(STREAM_ARRIVALS))
        self.controller = InjectionController(config.injection_limit)

        # Trace-driven mode (paper §4 future work): replay recorded send
        # events with blocking-send semantics instead of stochastic
        # arrivals.
        if trace is not None:
            trace.validate_for(self.topology)
            self._trace_events: Optional[Deque] = deque(trace)
        else:
            self._trace_events = None
        self._trace_pending: Deque[Tuple[int, int]] = deque()

        self.cycle = 0
        self.in_flight = 0
        self._msg_counter = 0
        self._saf = config.switching == "saf"
        self._ideal = config.flow_control == "ideal"
        self._highest_class_first = config.mux_policy == "highest_class"
        # Insertion-ordered set of channels with >= 1 reserved VC, so the
        # transmission phase touches only potentially active links and
        # the iteration order is deterministic.
        self._active_channels: Dict[PhysicalChannel, None] = {}
        self._delivering: List[VirtualChannel] = []
        self._last_progress = 0
        # Activity tracking.  Routing requests live in a min-heap ordered
        # by enqueue sequence (FIFO service order); a blocked message
        # parks on its candidate VCs' waiter lists until a release wakes
        # it; transmission polls only channels *armed* by an event that
        # could have made them ready (allocation, a flit arrival or
        # departure on an adjacent VC, an ejection).  The flit schedule
        # is bit-identical to polling everything every cycle, which
        # repro.simulator.reference.ScanEngine does: the golden-trace and
        # fuzz tests pin the two against each other.
        self._route_heap: List[Tuple[int, Message]] = []
        #: The pending-routing container, as step() and the depth probe
        #: read it (the reference stepper points it at its own queue).
        self._route_pending: Sized = self._route_heap
        self._route_seq = 0
        self._parked: Dict[int, Message] = {}
        self._next_active_seq = 0
        # Hot-path caches: the channel array, the flat VC list that
        # candidate indices resolve through, and the named rng streams
        # (so per-cycle phases skip the stream-dictionary lookup;
        # refreshed by _refresh_streams whenever the epoch advances).
        self._channels = self.fabric.channels
        self._vcs = self.fabric.vcs
        # Reusable scratch lists for _select, so the per-allocation cost
        # of the free/best candidate filters is paid once per engine.
        self._free_scratch: List[VirtualChannel] = []
        self._best_scratch: List[VirtualChannel] = []
        self._refresh_streams()

        # lifetime counters
        self.flits_moved_total = 0
        #: Transmit polls made; flits_moved_total / polls_total is the
        #: transmit phase's efficiency.  Scheduler bookkeeping, not
        #: simulated state: it stays out of state_fingerprint.
        self.polls_total = 0
        self.generated_total = 0
        self.delivered_total = 0

        # sampling state
        self._sample: Optional[SampleRecord] = None
        self._sample_flits_base = 0
        self._sample_generated_base = 0
        self._sample_refused_base = 0
        self._sample_vc_base: List[int] = []

        # Optional repro.obs observer.  It selects no code path: every
        # hook site is one is-None test around a call.
        self._obs: Optional["Observer"] = None
        if config.obs:
            from repro.obs.observer import ObsConfig, Observer

            self.attach_observer(
                Observer(ObsConfig.from_options(config.obs_options))
            )

    # ------------------------------------------------------------------
    # public driving interface
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the simulation by one cycle."""
        progressed = False
        self._generate_arrivals()
        if self._delivering:
            # Ejection first: flits settled at the destination leave their
            # buffers before this cycle's link transfers, so the final hop
            # streams at full rate just like every other hop.
            progressed |= self._eject()
        if self._route_pending:
            progressed |= self._route()
        if self._active_channels:
            progressed |= self._transmit()
        if progressed:
            self._last_progress = self.cycle
        elif (
            self.in_flight
            and self.cycle - self._last_progress
            > self.config.deadlock_threshold
        ):
            self._report_deadlock()
        self.cycle += 1
        obs = self._obs
        if obs is not None:
            # Observation only reads state (probes, heatmap), so observed
            # runs stay bit-identical to unobserved ones (golden traces).
            obs.on_cycle_end(self)

    def run_cycles(self, cycles: int) -> None:
        """Advance the simulation by *cycles* cycles.

        Idle-cycle fast-forward: while nothing is in flight, a cycle's
        four phases reduce to a no-op arrival poll, so the clock jumps
        straight to the next scheduled arrival instead of stepping through
        empty cycles one by one.  This is bit-identical to stepping (the
        skipped cycles touch neither state nor any rng stream) and makes
        low-load and drain phases effectively free.
        """
        end = self.cycle + cycles
        step = self.step
        while self.cycle < end:
            if self.in_flight == 0 and self._trace_events is None:
                next_due = self.arrivals.next_due
                if next_due > self.cycle:
                    self.cycle = next_due if next_due < end else end
                    if self.cycle == end:
                        return
            step()

    def advance_streams(self) -> None:
        """Switch to fresh random streams (between sampling periods)."""
        self.rng.advance_epoch()
        self._refresh_streams()
        self.arrivals.reseed(self.cycle, self._rng_arrivals)

    def _refresh_streams(self) -> None:
        """Re-cache the named rng streams for the current epoch."""
        self._rng_arrivals = self.rng.stream(STREAM_ARRIVALS)
        self._rng_destinations = self.rng.stream(STREAM_DESTINATIONS)
        self._rng_routing = self.rng.stream(STREAM_ROUTING)

    # -- observability ---------------------------------------------------

    @property
    def observer(self) -> Optional["Observer"]:
        """The attached repro.obs observer, if any."""
        return self._obs

    def attach_observer(self, observer: "Observer") -> None:
        """Attach a :class:`repro.obs.Observer` to this engine.

        The observer's hooks start firing from the next cycle on.
        """
        if self._obs is not None:
            raise ConfigurationError(
                "an observer is already attached to this engine"
            )
        observer.bind(self)
        self._obs = observer

    def detach_observer(self) -> Optional["Observer"]:
        """Detach and return the observer (None if none was attached)."""
        observer = self._obs
        self._obs = None
        if observer is not None:
            observer.unbind(self)
        return observer

    # -- sampling --------------------------------------------------------

    def start_sample(self) -> None:
        """Begin recording a sampling period."""
        assert self._sample is None, "a sample is already active"
        self._sample = SampleRecord(self.cycle)
        self._sample_flits_base = self.flits_moved_total
        self._sample_generated_base = self.controller.admitted
        self._sample_refused_base = self.controller.refused
        # Per-class flit counters accumulate across gap cycles too; the
        # snapshot restricts the sample's vc_usage to its own window so
        # it shares a denominator with flits_moved.
        self._sample_vc_base = self.fabric.vc_class_totals()

    def end_sample(self) -> SampleRecord:
        """Stop recording and return the finished sample."""
        sample = self._sample
        assert sample is not None, "no sample is active"
        sample.cycles = self.cycle - sample.start_cycle
        sample.flits_moved = self.flits_moved_total - self._sample_flits_base
        sample.generated = (
            self.controller.admitted - self._sample_generated_base
        )
        sample.refused = self.controller.refused - self._sample_refused_base
        sample.vc_usage = [
            total - base
            for total, base in zip(
                self.fabric.vc_class_totals(), self._sample_vc_base
            )
        ]
        self._sample = None
        return sample

    # ------------------------------------------------------------------
    # phase 1: generation
    # ------------------------------------------------------------------

    def _generate_arrivals(self) -> None:
        if self._trace_events is not None:
            self._generate_trace_arrivals()
            return
        if self.arrivals.next_due > self.cycle:
            return  # cheap peek: no heap traffic on arrival-free cycles
        due = self.arrivals.pop_due(self.cycle, self._rng_arrivals)
        rng_dest = self._rng_destinations
        for node in due:
            self._generate(node, rng_dest)

    def _generate_trace_arrivals(self) -> None:
        events = self._trace_events
        while events and events[0][0] <= self.cycle:
            _, src, dst = events.popleft()
            self._trace_pending.append((src, dst))
        # Blocking-send semantics: refused events retry every cycle, in
        # issue order, until congestion control admits them.
        for _ in range(len(self._trace_pending)):
            src, dst = self._trace_pending.popleft()
            if not self._inject(src, dst):
                self._trace_pending.append((src, dst))

    @property
    def trace_exhausted(self) -> bool:
        """True once every trace event has been admitted (trace mode)."""
        return not self._trace_events and not self._trace_pending

    def _generate(self, src: int, rng: random.Random) -> None:
        dst = self.traffic.sample_destination(src, rng)
        if dst is not None:
            self._inject(src, dst)

    def _inject(self, src: int, dst: int) -> bool:
        algorithm = self.algorithm
        state = algorithm.new_state(src, dst)
        msg_class = algorithm.message_class(src, dst, state)
        if not self.controller.try_admit(src, msg_class):
            if self._obs is not None:
                self._obs.on_message_refused(self, src, dst)
            return False
        message = Message(
            msg_id=self._msg_counter,
            src=src,
            dst=dst,
            length=self.config.message_length,
            distance=self.topology.distance(src, dst),
            route_state=state,
            msg_class=msg_class,
            created_at=self.cycle,
        )
        self._msg_counter += 1
        self.generated_total += 1
        self.in_flight += 1
        self._enqueue_route(message)
        if self._obs is not None:
            self._obs.on_message_created(self, message)
        return True

    # ------------------------------------------------------------------
    # phase 2: routing / virtual-channel allocation
    # ------------------------------------------------------------------

    def _enqueue_route(self, message: Message) -> None:
        """Hand *message* to the routing phase."""
        seq = self._route_seq
        self._route_seq = seq + 1
        message.route_seq = seq
        # Sequence numbers are strictly increasing, so the new entry
        # is >= everything in the heap and heappush is O(1) here.
        heappush(self._route_heap, (seq, message))

    def _route(self) -> bool:
        """The routing phase: serve requests in enqueue (FIFO) order.

        A message with no free candidate parks on its candidates' waiter
        lists instead of being re-polled every cycle; _wake_waiters puts
        it back with its original sequence number, so the service order
        after a wake is the order a FIFO queue that re-polls every
        blocked message each cycle (the reference stepper) would have
        served it in.  A woken message still carries its cached
        candidates: that is how its blocked episode (the cycles since
        _park stamped it) is recognised and reported to an observer.
        """
        heap = self._route_heap
        batch = sorted(heap)  # unique seqs: messages never compared
        heap.clear()
        policy = self.config.selection_policy
        rng = self._rng_routing
        obs = self._obs
        progressed = False
        for entry in batch:
            message = entry[1]
            candidates = message.cached_candidates
            if candidates is None:
                candidates = self._memo_candidates(message)
                message.cached_candidates = candidates
            elif obs is not None:
                obs.on_message_blocked(
                    self, message, candidates, self.cycle - message.blocked_at
                )
            chosen = self._select(candidates, policy, rng)
            if chosen is None:
                self._park(message, candidates)
                continue
            self._allocate(message, chosen)
            if obs is not None:
                obs.on_vc_acquired(self, message, chosen)
            progressed = True
        return progressed

    def _park(self, message: Message, candidates: Sequence[int]) -> None:
        """Shelve a blocked message until a candidate VC is released.

        A blocked message consumes no rng (the free filter in _select
        returns before any randrange when nothing is free), so skipping
        its re-polls cannot perturb the random stream — parking is
        invisible to the flit schedule.  Waiter entries carry the
        message's parking epoch, which every wake advances: the entries
        a wake leaves on the other candidates are ignored at their wake
        time rather than eagerly removed.
        """
        epoch = message.park_epoch
        message.blocked_at = self.cycle
        self._parked[message.msg_id] = message
        vcs = self._vcs
        for flat in candidates:
            vc = vcs[flat]
            waiters = vc.waiters
            if waiters is None:
                vc.waiters = [(epoch, message)]
            else:
                waiters.append((epoch, message))

    def _wake_waiters(self, vc: VirtualChannel) -> None:
        """A VC was released: requeue every message parked on it."""
        waiters = vc.waiters
        vc.waiters = None
        heap = self._route_heap
        parked = self._parked
        for epoch, message in waiters:  # type: ignore[union-attr]
            if message.park_epoch == epoch:
                message.park_epoch = epoch + 1
                del parked[message.msg_id]
                heappush(heap, (message.route_seq, message))

    def _memo_candidates(self, message: Message) -> Sequence[int]:
        """The message's candidates, from the route table.

        Algorithms expose a hashable digest of the candidate-relevant
        part of their route state (state_key); when available, the
        candidate set of a given (position, destination, digest) is
        computed once per table — for a shared table, once per process.
        The table is handed the live state only to read it on a miss.
        """
        state = message.route_state
        key = self.algorithm.state_key(state)
        if key is None:
            return self._compute_candidates(message)
        path = message.path
        entry = (path[-1].dst_node if path else message.src, message.dst, key)
        flats = self._route_entries.get(entry)
        if flats is None:
            flats = self._table.intern(entry, state)
        return flats

    def _compute_candidates(self, message: Message) -> Sequence[int]:
        """Candidates computed for this request alone: the only path for
        states without a key, and what the reference stepper holds the
        table to.  Asks the engine's own algorithm."""
        return flat_candidates(
            self.algorithm,
            self.fabric.num_vcs,
            message.route_state,
            message.head_node,
            message.dst,
        )

    def _select(
        self,
        candidates: Sequence[int],
        policy: str,
        rng: random.Random,
    ) -> Optional[VirtualChannel]:
        """The free candidate VC the policy picks, or None if none is.

        *candidates* are flat VC indices, resolved through the fabric's
        flat list; the rng is drawn from exactly when the final filtered
        set holds more than one VC.
        """
        vcs = self._vcs
        if len(candidates) == 1:
            vc = vcs[candidates[0]]
            return vc if vc.owner is None else None
        # The free/best filters reuse per-engine scratch lists: _route can
        # run this thousands of times per cycle under load, and the two
        # throwaway list allocations were visible in profiles.
        free = self._free_scratch
        free.clear()
        for flat in candidates:
            vc = vcs[flat]
            if vc.owner is None:
                free.append(vc)
        if not free:
            return None
        if len(free) == 1 or policy == "first":
            return free[0]
        if policy == "random":
            return free[rng.randrange(len(free))]
        # least_multiplexed: fewest already-reserved VCs on the physical
        # channel — the "least congested" local choice the paper ascribes
        # to adaptive routers; ties broken randomly.
        best = self._best_scratch
        best.clear()
        best_load = free[0].channel.owned_count
        for vc in free:
            load = vc.channel.owned_count
            if load < best_load:
                best_load = load
                best.clear()
                best.append(vc)
            elif load == best_load:
                best.append(vc)
        if len(best) == 1:
            return best[0]
        return best[rng.randrange(len(best))]

    def _allocate(self, message: Message, vc: VirtualChannel) -> None:
        channel = vc.channel
        current = message.head_node  # before the new hop is appended
        # reserve() captures the upstream VC from message.path and keeps
        # the channel's owned_count / owned_idx bookkeeping.
        vc.reserve(message)
        if channel.owned_count == 1:
            channel.active_seq = self._next_active_seq
            self._next_active_seq += 1
            self._active_channels[channel] = None
        if channel.armed_cycle < self.cycle:
            channel.armed_cycle = self.cycle
        message.path.append(vc)
        message.route_state = self.algorithm.advance(
            message.route_state, current, vc.link, vc.vc_class
        )
        message.cached_candidates = None

    # ------------------------------------------------------------------
    # phase 3: transmission
    # ------------------------------------------------------------------

    def _transmit(self) -> bool:
        """The transmission phase.

        Polls only channels *armed* for the current cycle instead of the
        whole active set.  A channel is armed by every event that can
        change one of its blocking conditions: gaining a reserved VC
        (_allocate), an ejection freeing space in one of its target VCs
        (_eject), and — below — a flit departure freeing space one hop
        back or a flit arrival giving the next hop something to forward.
        The arming-event enumeration is complete (settled-flit counts
        only change at cycle boundaries, via exactly these events), so an
        unarmed channel's poll would fail; skipping it is unobservable.

        One event *disarms*: a successful move on a channel with a single
        reserved VC.  The readiness of that VC for the next cycle is
        recomputed right after the move, from the state the move left,
        and is written to ``armed_cycle`` either way — so a "next cycle"
        arm set earlier in the cycle (by the downstream departure that
        spliced the channel in, under one-flit ideal-flow-control
        buffers) is cancelled when the VC it was set for has just
        refilled.  This is sound for the same reason skipping is: every
        term of the predicate (flits left, buffer space, a flit upstream,
        assembly) changes only through a departure from the VC, an
        arrival upstream, an ejection or an allocation, and each of those
        arms the channel itself.  Channels with several reserved VCs are
        still re-armed unconditionally.

        Within the cycle, successes happen in ascending active-set order
        — the full scan's order — because the armed subset is drained
        through a min-heap keyed on ``active_seq``, and a move that could
        unblock a channel mid-cycle (ideal flow control / SAF assembly)
        splices that channel into the current pass when its turn is still
        ahead, or into the next fixpoint pass when it already went.  That
        reproduces the scan fixpoint's poll outcomes exactly, modulo
        polls that fail with no side effect.

        The per-channel poll is :meth:`PhysicalChannel.transmit` fused
        inline (the reference stepper still calls the method, and the
        golden-trace identity tests pin the two code paths against each
        other), so the arming predicates and the arrival bookkeeping can
        reuse the values the poll just loaded instead of re-reading
        half a dozen attribute chains per flit.  One flit per channel
        per cycle needs no explicit guard here: a successful poll clears
        the channel from every poll list for the rest of the cycle (the
        queue_cycle/last_transmit_cycle splice guards below), so a
        channel is never polled again after it moved.  Lifetime flit
        counts are not touched per flit at all: ``flits_in`` already is
        the count, and :meth:`VirtualChannel.release` retires it.
        """
        saf = self._saf
        ideal = self._ideal
        priority = self._highest_class_first
        cycle = self.cycle
        next_cycle = cycle + 1
        moved = polls = 0
        # Flit tracing: the observer's per-flit hook, called ahead of
        # the arrival bookkeeping of every move.
        obs = self._obs
        on_flit = (
            obs.on_flit_arrival
            if obs is not None and obs.trace_flit_moves
            else None
        )
        controller = self.controller
        delivering = self._delivering
        # The active set is insertion-ordered by ascending active_seq, so
        # the armed subset is already sorted in the scan's polling order.
        pending: List[PhysicalChannel] = []
        append_pending = pending.append
        for channel in self._active_channels:
            if channel.armed_cycle >= cycle:
                channel.queue_cycle = cycle
                append_pending(channel)
        # Channels spliced into the *current* pass by a mid-pass event,
        # ahead of the poll position.  Almost always empty, so the inner
        # loop degrades to a plain list walk.
        aux: List[Tuple[int, PhysicalChannel]] = []
        while True:
            progress = False
            retry: List[PhysicalChannel] = []
            i = 0
            n = len(pending)
            polls += n
            while i < n or aux:
                if aux and (
                    i >= n or aux[0][0] < pending[i].active_seq
                ):
                    channel = heappop(aux)[1]
                    polls += 1
                else:
                    channel = pending[i]
                    i += 1
                # -- PhysicalChannel.transmit, fused ------------------
                vcs = channel.vcs
                owned = channel.owned_idx
                m = channel.owned_count
                if m == 1:
                    # Sole owner, the common poll: one candidate, no
                    # round-robin rotation to work out.
                    order = owned
                elif priority:
                    # Strict priority: top virtual-channel class down.
                    order = owned[::-1]
                else:
                    start = bisect_left(owned, channel._rr_next)
                    if start == 0 or start == m:
                        order = owned
                    else:
                        order = owned[start:] + owned[:start]
                for idx in order:
                    vc = vcs[idx]
                    owner = vc.owner  # reserved: owned_idx lists no other
                    owner_len = owner.length
                    f_in = vc.flits_in
                    if f_in >= owner_len:
                        # Whole worm already passed through: vc.upstream
                        # may be reused by another message, so this guard
                        # must come before any upstream access.
                        continue
                    occupancy = vc.occupancy
                    cap = vc.capacity
                    if ideal:
                        if occupancy >= cap:
                            continue
                    elif (
                        # had_space(cycle), inlined.
                        occupancy
                        - (vc.last_arrival_cycle == cycle)
                        + (vc.last_departure_cycle == cycle)
                        >= cap
                    ):
                        continue
                    upstream = vc.upstream
                    if upstream is None:
                        inject_left = owner.flits_to_inject
                        if inject_left <= 0:
                            continue
                        owner.flits_to_inject = inject_left - 1
                        up_occ = up_fin = up_fout = 0
                    else:
                        up_occ = upstream.occupancy
                        # settled_flits(cycle) <= 0, inlined.
                        if (
                            up_occ
                            - (upstream.last_arrival_cycle == cycle)
                            <= 0
                        ):
                            continue
                        up_fin = upstream.flits_in
                        if saf and up_fin < owner_len:
                            continue
                        up_occ -= 1
                        upstream.occupancy = up_occ
                        up_fout = upstream.flits_out + 1
                        upstream.flits_out = up_fout
                        upstream.last_departure_cycle = cycle
                    occupancy += 1
                    vc.occupancy = occupancy
                    f_in += 1
                    vc.flits_in = f_in
                    vc.last_arrival_cycle = cycle
                    channel.last_transmit_cycle = cycle
                    if not priority:
                        next_idx = idx + 1
                        channel._rr_next = (
                            0 if next_idx == channel.num_vcs else next_idx
                        )
                    break
                else:
                    # No ready VC.  Unlike the scan fixpoint (which
                    # re-polls every channel that failed on buffer space
                    # or assembly), same-cycle retries here are purely
                    # event-driven: a failed channel is re-queued below
                    # exactly when a move frees its space or completes
                    # its packet, and the scan's extra re-polls are
                    # no-ops without such an event — so the success
                    # sequence is unchanged.
                    channel.queue_cycle = -1  # may be queued again
                    continue
                # -- move epilogue: event hooks + arrival bookkeeping --
                progress = True
                moved += 1
                # Re-arm this channel for next cycle if other reserved VCs
                # share it, or the VC that just moved can move again (more
                # flits upstream, buffer space, assembly done).  For a
                # sole owner that predicate, taken after the move, is the
                # whole truth about next cycle, so a false answer also
                # *cancels* a "next cycle" arm left by an earlier event
                # this cycle (typically the downstream departure that
                # spliced this channel in): each condition it found false
                # turns true only through an event that re-arms the
                # channel itself.
                if m > 1 or (
                    f_in < owner_len
                    and occupancy < cap
                    and (
                        inject_left > 1
                        if upstream is None
                        else (
                            up_occ > 0
                            and (not saf or up_fin >= owner_len)
                        )
                    )
                ):
                    channel.armed_cycle = next_cycle
                else:
                    channel.armed_cycle = cycle
                if upstream is not None:
                    # The departed flit freed a slot in *upstream*: the
                    # channel feeding it may move next cycle — or this
                    # one, under ideal flow control.  Queue it unless it
                    # is already scheduled this cycle or already took
                    # its one move.
                    up_ch = upstream.channel
                    uu = upstream.upstream
                    if up_ch.armed_cycle < next_cycle and (
                        up_ch.owned_count > 1
                        or (
                            up_fin < owner_len
                            and (
                                owner.flits_to_inject > 0
                                if uu is None
                                else (
                                    uu.occupancy > 0
                                    and (
                                        not saf
                                        or uu.flits_in >= owner_len
                                    )
                                )
                            )
                        )
                    ):
                        up_ch.armed_cycle = next_cycle
                    if (
                        ideal
                        and up_ch.queue_cycle != cycle
                        and up_ch.last_transmit_cycle != cycle
                    ):
                        up_ch.queue_cycle = cycle
                        up_seq = up_ch.active_seq
                        if up_seq > channel.active_seq:
                            heappush(aux, (up_seq, up_ch))
                        else:
                            retry.append(up_ch)
                downstream = vc.downstream
                if downstream is not None:
                    # The arrived flit settles next cycle for the channel
                    # forwarding out of *vc*; under SAF it may also have
                    # completed packet assembly, a condition the scan
                    # fixpoint lets take effect within the cycle (same
                    # pass if the consumer's turn is still ahead, next
                    # pass under ideal flow control otherwise).
                    down_ch = downstream.channel
                    if down_ch.armed_cycle < next_cycle and (
                        down_ch.owned_count > 1
                        or (
                            downstream.flits_in < owner_len
                            and downstream.occupancy
                            < downstream.capacity
                            and (not saf or f_in >= owner_len)
                        )
                    ):
                        down_ch.armed_cycle = next_cycle
                    if (
                        saf
                        and down_ch.queue_cycle != cycle
                        and down_ch.last_transmit_cycle != cycle
                    ):
                        down_seq = down_ch.active_seq
                        if down_seq > channel.active_seq:
                            down_ch.queue_cycle = cycle
                            heappush(aux, (down_seq, down_ch))
                        elif ideal:
                            down_ch.queue_cycle = cycle
                            retry.append(down_ch)
                # After the arming reads (a release below would clear the
                # upstream/downstream links read above): the arrival
                # bookkeeping, on the poll's locals.
                if on_flit is not None:
                    on_flit(self, vc)
                if downstream is None:  # vc is owner.path[-1]
                    if vc.dst_node != owner.dst:
                        # The worm's front advanced into an intermediate
                        # router: request the next channel once the
                        # router has seen the head flit (wormhole/VCT)
                        # or the whole packet (SAF).
                        if f_in == (owner_len if saf else 1):
                            self._enqueue_route(owner)
                    elif f_in == 1:
                        delivering.append(vc)
                if upstream is None:
                    if inject_left == 1:  # flits_to_inject hit zero
                        controller.injection_complete(
                            owner.src, owner.msg_class
                        )
                elif up_occ == 0 and up_fout >= owner_len:
                    # upstream.drained, inlined.
                    self._release(upstream, owner)
            if not ideal or not progress or not retry:
                break
            # Channels carry no ordering of their own; active_seq is
            # unique, so the key alone fixes the order.
            retry.sort(key=_BY_ACTIVE_SEQ)
            pending = retry
        self.flits_moved_total += moved
        self.polls_total += polls
        return moved > 0

    # ------------------------------------------------------------------
    # phase 4: ejection
    # ------------------------------------------------------------------

    def _eject(self) -> bool:
        cycle = self.cycle
        still: List[VirtualChannel] = []
        ejected_any = False
        for vc in self._delivering:
            owner = vc.owner
            # Only flits present since the start of the cycle are consumed,
            # giving the paper's exact zero-load latency m_l + d - 1.
            # (settled_flits(cycle), inlined.)
            flits = vc.occupancy - (vc.last_arrival_cycle == cycle)
            if flits > 0:
                vc.occupancy -= flits
                vc.flits_out += flits
                owner.flits_ejected += flits
                ejected_any = True
                # Space freed at the destination: the channel feeding
                # this VC may move again this very cycle (ejection runs
                # before transmission, and _eject leaves
                # last_departure_cycle untouched so even conservative
                # flow control sees the slots immediately).
                channel = vc.channel
                if channel.armed_cycle < cycle:
                    channel.armed_cycle = cycle
            if owner.flits_ejected >= owner.length:
                self._complete(vc, owner)
            else:
                still.append(vc)
        self._delivering = still
        return ejected_any

    def _complete(self, vc: VirtualChannel, owner: Message) -> None:
        owner.delivered_at = self.cycle
        self._release(vc, owner)
        assert not owner.path, "delivered message still holds channels"
        self.in_flight -= 1
        self.delivered_total += 1
        sample = self._sample
        if sample is not None:
            sample.deliveries.append(
                (owner.delivered_at - owner.created_at, owner.distance)
            )
        if self._obs is not None:
            self._obs.on_message_delivered(self, owner)

    # ------------------------------------------------------------------
    # shared bookkeeping
    # ------------------------------------------------------------------

    def _release(self, vc: VirtualChannel, owner: Message) -> None:
        assert owner.path[0] is vc, "releasing out of tail order"
        owner.path.popleft()
        # release() keeps the channel's owned_count / owned_idx current.
        vc.release()
        channel = vc.channel
        if channel.owned_count == 0:
            self._active_channels.pop(channel, None)
        if vc.waiters is not None:
            self._wake_waiters(vc)

    def _waiting_messages(self) -> List[Message]:
        """Messages whose routing request is pending, in service order."""
        entries = self._route_heap + [
            (message.route_seq, message)
            for message in self._parked.values()
        ]
        entries.sort()  # unique seqs: messages never compared
        return [entry[1] for entry in entries]

    def _report_deadlock(self) -> None:
        waiting = self._waiting_messages()
        stuck = [
            f"msg#{message.msg_id} {message.src}->{message.dst} "
            f"head at {message.head_node}"
            for message in waiting[:8]
        ]
        summary = (
            f"no progress for {self.config.deadlock_threshold} cycles at "
            f"cycle {self.cycle} with {self.in_flight} messages in flight "
            f"(algorithm={self.algorithm.name}); sample of waiting "
            f"messages: {'; '.join(stuck) or 'none in route queue'}"
        )
        report = None
        if self.config.sanitize:
            # Nothing was granted for deadlock_threshold cycles, so every
            # waiting message failed its last attempt: what it holds is
            # its live path and what it waits on is its cached candidate
            # set.  The wait-for graph needs no upkeep before this point.
            graph = WaitForGraph()
            num_vcs = self.fabric.num_vcs
            for message in waiting:
                graph.record_blocked(
                    message,
                    [
                        divmod(flat, num_vcs)
                        for flat in message.cached_candidates or ()
                    ],
                )
            report = graph.build_report()
        if self._obs is not None:
            self._obs.on_deadlock(self, summary, report)
        if report is None:
            raise DeadlockError(
                summary
                + " (run with SimulationConfig.sanitize=True for a "
                "wait-for-graph diagnosis)"
            )
        raise DeadlockError(summary + "\n" + report.format(), report=report)

    # ------------------------------------------------------------------
    # introspection helpers (used by tests and analysis)
    # ------------------------------------------------------------------

    def network_flits(self) -> int:
        """Flits currently buffered in the network."""
        return self.fabric.occupied_flits()

    def conservation_check(self) -> bool:
        """Invariant: every admitted flit is at the source, in flight or ejected.

        Used by integration and property tests.
        """
        length = self.config.message_length
        expected = self.generated_total * length
        at_source = 0
        ejected = 0
        for message in self._iter_live_messages():
            at_source += message.flits_to_inject
            ejected += message.flits_ejected
        delivered_flits = self.delivered_total * length
        in_network = self.network_flits()
        return expected == at_source + in_network + ejected + delivered_flits

    def _iter_live_messages(self) -> Iterator[Message]:
        seen = set()
        for message in self._waiting_messages():
            seen.add(message.msg_id)
            yield message
        for channel in self._active_channels:
            for vc in channel.vcs:
                owner = vc.owner
                if owner is not None and owner.msg_id not in seen:
                    seen.add(owner.msg_id)
                    yield owner

    def state_fingerprint(self) -> Tuple:
        """Hashable digest of the engine's complete dynamic state.

        Two engines driven through the same configuration must agree on
        this no matter which stepper ran them — it is the equivalence
        oracle of the ScanEngine-vs-Engine fuzz tests.  Scheduling
        bookkeeping (armed stamps, retry hints, waiter lists, parking
        epochs) is deliberately excluded; everything that can influence
        future simulated behaviour is included, down to the rng stream
        states and the round-robin pointers of every channel.
        """
        channels_fp = tuple(
            (
                channel.flits_moved,
                channel._rr_next,
                channel.last_transmit_cycle,
                tuple(
                    (
                        vc.vc_class,
                        vc.owner.msg_id if vc.owner is not None else None,
                        vc.occupancy,
                        vc.flits_in,
                        vc.flits_out,
                        vc.last_arrival_cycle,
                        vc.last_departure_cycle,
                        vc.flits_carried_total,
                    )
                    for vc in channel.vcs
                    if vc.owner is not None or vc.flits_carried_total
                ),
            )
            for channel in self._channels
        )
        pending = sorted(
            message.msg_id for message in self._waiting_messages()
        )
        messages_fp = tuple(
            sorted(
                (
                    message.msg_id,
                    message.src,
                    message.dst,
                    message.created_at,
                    message.flits_to_inject,
                    message.flits_ejected,
                    message.head_node,
                    route_state_fingerprint(message.route_state),
                )
                for message in self._iter_live_messages()
            )
        )
        delivering = tuple(
            (vc.link.index, vc.vc_class) for vc in self._delivering
        )
        controller = self.controller
        return (
            self.cycle,
            self._msg_counter,
            self.flits_moved_total,
            self.generated_total,
            self.delivered_total,
            self.in_flight,
            self.arrivals.next_due,
            controller.admitted,
            controller.refused,
            tuple(sorted(controller._outstanding.items())),
            tuple(pending),
            messages_fp,
            delivering,
            channels_fp,
            self.rng.stream(STREAM_ARRIVALS).getstate(),
            self.rng.stream(STREAM_DESTINATIONS).getstate(),
            self.rng.stream(STREAM_ROUTING).getstate(),
        )


__all__ = ["Engine"]

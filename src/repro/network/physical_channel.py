"""Physical channels: flit-wide links time-multiplexed among virtual channels.

The paper's model: multiple virtual channels share one physical channel's
bandwidth in a time-multiplexed manner with a flit transfer time of one
cycle (``f_t = 1``).  Each cycle a physical channel may move at most one
flit, chosen round-robin among the virtual channels that are *ready*:
reserved, with a settled flit available upstream (present since the start
of the cycle) and a buffer slot that was free at the start of the cycle.

``transmit`` is the channel model's definition: the reference stepper
(:mod:`repro.simulator.reference`) calls it once per active link per
fixpoint pass per cycle, and the engine's transmit phase is this method
fused inline (less the store-and-forward assembly test, which never fails
there: see ``Engine._transmit``), pinned to it by the golden traces.  Its
scan only visits the *reserved* virtual channels: ``owned_idx`` is a
sorted index list maintained by :meth:`VirtualChannel.reserve`/
``release``, and the round-robin start position is located in it with
one bisect.  For the hop schemes (16+ virtual channels of which a handful
are reserved at any time) this removes almost the entire scan; the
semantics are bit-identical to scanning every index and skipping the free
ones (the test suite pins the engine's flit schedule against golden
traces).

The channel also carries the activity-tracked scheduler's bookkeeping:
``armed_cycle`` stamps the latest cycle at which this channel may possibly
move a flit (maintained by the engine's event hooks: allocation, ejection,
arrivals, departures), and ``active_seq`` is the channel's position in the
engine's insertion-ordered active set, which the event-driven transmit
phase uses to reproduce the full scan's polling order exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional

from repro.network.virtual_channel import VirtualChannel
from repro.topology.base import Link


class PhysicalChannel:
    """Runtime state of one unidirectional link."""

    __slots__ = (
        "link",
        "vcs",
        "num_vcs",
        "_rr_next",
        "owned_idx",
        "owned_count",
        "flits_retired",
        "last_transmit_cycle",
        "retry_hint",
        "armed_cycle",
        "active_seq",
        "queue_cycle",
    )

    def __init__(self, link: Link, num_vcs: int, vc_capacity: int) -> None:
        self.link = link
        self.vcs: List[VirtualChannel] = [
            VirtualChannel(link, vc_class, vc_capacity)
            for vc_class in range(num_vcs)
        ]
        for vc in self.vcs:
            vc.channel = self
        self.num_vcs = num_vcs
        self._rr_next = 0  # round-robin scan start
        #: Sorted indices of the currently reserved virtual channels,
        #: maintained by VirtualChannel.reserve/release.
        self.owned_idx: List[int] = []
        #: Virtual channels currently reserved (drives the active-link set).
        self.owned_count = 0
        #: Flits moved for worms that have since released their virtual
        #: channel (added by VirtualChannel.release; see flits_moved).
        self.flits_retired = 0
        #: Enforces the one-flit-per-cycle bandwidth across retry passes.
        self.last_transmit_cycle = -1
        #: Set by a failed transmit: True when some virtual channel was
        #: blocked *only* on buffer space (or SAF packet assembly) — the
        #: two conditions that can still change later in the same cycle.
        #: Only the reference stepper (``ScanEngine``) reads it: its
        #: ideal-flow-control fixpoint re-polls only channels with this
        #: hint; all other failures are final for the cycle because
        #: settled-flit counts never increase mid-cycle.  ``Engine``
        #: re-polls by event instead and never consults it.
        self.retry_hint = False
        #: Latest cycle at which this channel might move a flit.  The
        #: activity-tracked scheduler polls a channel at cycle c only when
        #: ``armed_cycle >= c``; the engine's event hooks bump the stamp
        #: whenever one of the channel's blocking conditions changes.
        self.armed_cycle = -1
        #: Position in the engine's insertion-ordered active set (assigned
        #: when the channel gains its first reserved virtual channel).
        self.active_seq = -1
        #: Last cycle this channel was queued for a transmit poll.  The
        #: activity-tracked scheduler stamps it when the channel enters a
        #: poll list, so a mid-cycle event never queues a channel that is
        #: already scheduled (or already polled) this cycle.
        self.queue_cycle = -1

    def vc(self, vc_class: int) -> VirtualChannel:
        return self.vcs[vc_class]

    @property
    def flits_moved(self) -> int:
        """Lifetime flits moved, for channel-utilization measurement.

        Nothing counts per flit: released worms are in ``flits_retired``
        and each reserved virtual channel's ``flits_in`` is the count of
        the worm still crossing.
        """
        moved = self.flits_retired
        vcs = self.vcs
        for idx in self.owned_idx:
            moved += vcs[idx].flits_in
        return moved

    def transmit(
        self,
        cycle: int,
        store_and_forward: bool,
        ideal: bool,
        highest_class_first: bool = False,
    ) -> Optional[VirtualChannel]:
        """Move one flit on the highest-priority ready VC, if any.

        In store-and-forward mode a flit may only cross once its entire
        packet is assembled upstream (at the source node, or fully received
        into the upstream buffer); this single extra condition turns the
        wormhole engine into a SAF engine.

        *ideal* selects the flow-control model for buffer space: under
        ideal flow control a flit may enter a slot freed earlier in the
        same cycle (hardware whose flits shift simultaneously on the clock
        edge), so a contiguous worm streams at full rate through one-flit
        buffers.  Under conservative flow control only slots free at the
        start of the cycle count.  Either way, only *settled* flits —
        present since the start of the cycle — may move, so no flit ever
        crosses two links in one cycle.

        *highest_class_first* replaces the fair round-robin multiplexer
        with a strict priority scan from the top virtual-channel class
        down.  For hop schemes the class encodes hops travelled, so this
        gives channel bandwidth to the most-progressed worms first — an
        arbitration-level reading of the paper's "priority information"
        (``repro-campaign run --figure abl-arb`` measures it).
        """
        if self.last_transmit_cycle == cycle:
            return None
        vcs = self.vcs
        owned = self.owned_idx
        if highest_class_first:
            order = reversed(owned)
        else:
            start = bisect_left(owned, self._rr_next)
            if start == 0 or start == len(owned):
                order = owned
            else:
                order = owned[start:] + owned[:start]
        retry_hint = False
        for idx in order:
            vc = vcs[idx]
            owner = vc.owner
            if owner is None or vc.flits_in >= owner.length:
                # Free, or the whole worm already passed through: once the
                # tail is in, vc.upstream may be reused by another message,
                # so this guard must come before any upstream access.
                continue
            occupancy = vc.occupancy
            if ideal:
                if occupancy >= vc.capacity:
                    retry_hint = True  # space may free later this cycle
                    continue
            elif not vc.had_space(cycle):
                continue
            upstream = vc.upstream
            if upstream is None:
                if owner.flits_to_inject <= 0:
                    continue
                owner.flits_to_inject -= 1
            else:
                # settled_flits(cycle) <= 0, inlined.
                if (
                    upstream.occupancy
                    - (upstream.last_arrival_cycle == cycle)
                    <= 0
                ):
                    continue
                if (
                    store_and_forward
                    and upstream.flits_in < owner.length
                ):
                    retry_hint = True  # packet may finish assembling
                    continue
                upstream.occupancy -= 1
                upstream.flits_out += 1
                upstream.last_departure_cycle = cycle
            # receive_flit(cycle), inlined (minus the upstream half above).
            vc.occupancy = occupancy + 1
            vc.flits_in += 1
            vc.last_arrival_cycle = cycle
            self.last_transmit_cycle = cycle
            if not highest_class_first:
                next_idx = idx + 1
                self._rr_next = 0 if next_idx == self.num_vcs else next_idx
            return vc
        self.retry_hint = retry_hint
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PhysicalChannel({self.link!r}, vcs={len(self.vcs)}, "
            f"owned={self.owned_count})"
        )


__all__ = ["PhysicalChannel"]

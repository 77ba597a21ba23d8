"""Virtual channels and their flit buffers.

Each physical channel carries several virtual channels; each virtual
channel owns a small flit buffer located at the *downstream* router.  A
virtual channel is reserved by a message's head flit and held until the
tail flit has drained out of its buffer — the defining resource discipline
of wormhole routing.

Cycle semantics are *snapshot-based* so that results do not depend on the
order channels are scanned within a cycle: a flit may leave a buffer only
if it was already there at the start of the cycle, and may enter only if a
slot was free at the start of the cycle.  Because a buffer receives at most
one flit per cycle (its own link's bandwidth) and sends at most one (the
downstream link's), the start-of-cycle state is recoverable from two
timestamps instead of a per-cycle reset sweep.  Either flow-control model
reproduces ideal full-rate wormhole pipelining — a contiguous worm
advances one flit per channel per cycle — at its own default depth
(``SimulationConfig.effective_buffer_depth``): one-flit buffers under
ideal flow control, where a flit may enter a slot freed earlier in the same
cycle, and two-flit buffers under conservative flow control.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.message import Message
    from repro.network.physical_channel import PhysicalChannel
    from repro.topology.base import Link


class VirtualChannel:
    """One virtual channel: reservation state plus flit-buffer counters."""

    __slots__ = (
        "link",
        "dst_node",
        "vc_class",
        "capacity",
        "owner",
        "occupancy",
        "flits_in",
        "flits_out",
        "upstream",
        "downstream",
        "last_arrival_cycle",
        "last_departure_cycle",
        "flits_retired",
        "channel",
        "waiters",
    )

    def __init__(self, link: "Link", vc_class: int, capacity: int) -> None:
        self.link = link
        #: ``link.dst``, cached: the transmit loop reads it once per flit.
        self.dst_node = link.dst
        self.vc_class = vc_class
        self.capacity = capacity
        #: Message currently holding the channel, or None when free.
        self.owner: Optional["Message"] = None
        #: Flits of the owner currently in this buffer.
        self.occupancy = 0
        #: Cumulative flits of the owner that have entered the buffer.
        self.flits_in = 0
        #: Cumulative flits of the owner that have left the buffer.
        self.flits_out = 0
        #: Where this channel's flits come from: the owner's previous
        #: virtual channel, or None when fed directly by the source node.
        self.upstream: Optional["VirtualChannel"] = None
        #: Where the owner's flits go next: the owner's *following* virtual
        #: channel, or None while this one is the worm's front.  Maintained
        #: by reserve/release; the activity-tracked scheduler follows it to
        #: re-arm the consumer of a buffer that just gained a flit.
        self.downstream: Optional["VirtualChannel"] = None
        self.last_arrival_cycle = -1
        self.last_departure_cycle = -1
        #: Flits carried for owners that have since released the channel;
        #: the current owner's are still in ``flits_in`` (see
        #: :attr:`flits_carried_total`).
        self.flits_retired = 0
        #: Owning physical channel (set by PhysicalChannel.__init__), so
        #: reservation bookkeeping stays correct no matter who reserves.
        self.channel: Optional["PhysicalChannel"] = None
        #: Routing requests parked on this channel by the activity-tracked
        #: scheduler: (park_epoch, message) pairs re-queued on release.
        #: None whenever nothing waits (the common case).
        self.waiters: Optional[List[Tuple[int, "Message"]]] = None

    # -- reservation ---------------------------------------------------------

    @property
    def free(self) -> bool:
        return self.owner is None

    def reserve(self, message: "Message") -> None:
        assert self.owner is None, "reserving an occupied virtual channel"
        self.owner = message
        self.occupancy = 0
        self.flits_in = 0
        self.flits_out = 0
        self.last_arrival_cycle = -1
        self.last_departure_cycle = -1
        upstream = message.path[-1] if message.path else None
        self.upstream = upstream
        self.downstream = None
        if upstream is not None:
            upstream.downstream = self
        channel = self.channel
        if channel is not None:
            insort(channel.owned_idx, self.vc_class)
            channel.owned_count += 1

    def release(self) -> None:
        assert self.occupancy == 0, "releasing a non-empty virtual channel"
        self.owner = None
        self.upstream = None
        self.downstream = None
        # Lifetime accounting happens here, once per worm, not per flit.
        # flits_in itself stays put until the next reserve(): a released
        # channel's last counters are part of the state fingerprint.
        carried = self.flits_in
        self.flits_retired += carried
        channel = self.channel
        if channel is not None:
            channel.owned_idx.remove(self.vc_class)
            channel.owned_count -= 1
            channel.flits_retired += carried

    @property
    def flits_carried_total(self) -> int:
        """Lifetime flit count, for virtual-channel load-balance studies."""
        if self.owner is None:
            return self.flits_retired
        return self.flits_retired + self.flits_in

    # -- snapshot-based flit movement ---------------------------------------

    def settled_flits(self, cycle: int) -> int:
        """Flits that were already in the buffer at the start of *cycle*."""
        settled = self.occupancy
        if self.last_arrival_cycle == cycle:
            settled -= 1
        return settled

    def had_space(self, cycle: int) -> bool:
        """Was a buffer slot free at the start of *cycle*?"""
        occupancy_at_start = self.occupancy
        if self.last_arrival_cycle == cycle:
            occupancy_at_start -= 1
        if self.last_departure_cycle == cycle:
            occupancy_at_start += 1
        return occupancy_at_start < self.capacity

    def receive_flit(self, cycle: int) -> None:
        """Move one flit across the physical link into this buffer."""
        upstream = self.upstream
        if upstream is None:
            self.owner.flits_to_inject -= 1
        else:
            upstream.occupancy -= 1
            upstream.flits_out += 1
            upstream.last_departure_cycle = cycle
        self.occupancy += 1
        self.flits_in += 1
        self.last_arrival_cycle = cycle

    @property
    def drained(self) -> bool:
        """True when the owner's tail flit has left this buffer."""
        return (
            self.owner is not None
            and self.occupancy == 0
            and self.flits_out >= self.owner.length
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        owner = self.owner.msg_id if self.owner else None
        return (
            f"VC(link={self.link.index}, class={self.vc_class}, "
            f"owner={owner}, occ={self.occupancy}/{self.capacity})"
        )


__all__ = ["VirtualChannel"]

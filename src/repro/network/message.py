"""Messages (worms) and their life cycle.

A message of ``length`` flits is created at a source node, waits in the
source's injection queue, then snakes through the network occupying a
contiguous chain of virtual channels.  Flits are modelled by *counters*
rather than individual objects: each virtual channel in the chain knows how
many flits it currently buffers and how many have already passed through
it.  This is exact for wormhole routing — flits of one message are
indistinguishable and always move in FIFO order — and makes the simulator
several times faster than a per-flit object model.

Life-cycle timestamps (all in cycles):

* ``created_at`` — generation time; the latency clock starts here, matching
  the paper's latency definition ``w + (m_l + d - 1) * f_t`` where ``w``
  includes all queueing at the source.
* ``delivered_at`` — the cycle the tail flit is consumed at the destination.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Hashable, Optional, Sequence

from repro.network.virtual_channel import VirtualChannel


class Message:
    """One worm in flight (or waiting to enter the network)."""

    __slots__ = (
        "msg_id",
        "src",
        "dst",
        "length",
        "distance",
        "route_state",
        "msg_class",
        "created_at",
        "delivered_at",
        "flits_to_inject",
        "flits_ejected",
        "path",
        "cached_candidates",
        "route_seq",
        "park_epoch",
        "blocked_at",
    )

    def __init__(
        self,
        msg_id: int,
        src: int,
        dst: int,
        length: int,
        distance: int,
        route_state: Any,
        msg_class: Hashable,
        created_at: int,
    ) -> None:
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.length = length
        self.distance = distance
        self.route_state = route_state
        self.msg_class = msg_class
        self.created_at = created_at
        self.delivered_at: Optional[int] = None
        # Flits still sitting at the source node (the whole message at
        # creation time; they leave one per cycle over the first link).
        self.flits_to_inject = length
        self.flits_ejected = 0
        # Virtual channels currently held, oldest first.  The head flit is
        # in (or just entering) path[-1]'s buffer.
        self.path: Deque[VirtualChannel] = deque()
        # Route candidates are invariant while the head is blocked at one
        # node, so they are looked up once per node and cached here: flat
        # VC indices (link.index * V + vc_class), usually the route
        # table's own shared tuple.
        self.cached_candidates: Optional[Sequence[int]] = None
        # Activity-tracked scheduler bookkeeping: the FIFO sequence number
        # of the message's current routing request (assigned per enqueue,
        # kept while the request is blocked so service order matches the
        # reference stepper's queue discipline), the parking epoch, which
        # every wake advances to invalidate stale waiter-list entries,
        # and the cycle the request last failed at (set by _park: the
        # start of the blocked episode an observer is told about).
        self.route_seq = -1
        self.park_epoch = 0
        self.blocked_at = -1

    # -- derived position ----------------------------------------------------

    @property
    def head_node(self) -> int:
        """Node the head flit currently occupies (source until first hop)."""
        if not self.path:
            return self.src
        return self.path[-1].link.dst

    @property
    def head_arrived(self) -> bool:
        """True once the head flit sits in the buffer of the newest VC."""
        return bool(self.path) and self.path[-1].flits_in > 0

    @property
    def delivered(self) -> bool:
        return self.flits_ejected >= self.length

    @property
    def injection_complete(self) -> bool:
        """True once every flit has left the source node."""
        return self.flits_to_inject == 0

    @property
    def latency(self) -> int:
        """Cycles from creation to tail delivery (delivered messages only)."""
        if self.delivered_at is None:
            raise ValueError(
                f"message {self.msg_id} has not been delivered yet"
            )
        return self.delivered_at - self.created_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Message#{self.msg_id}({self.src}->{self.dst}, "
            f"len={self.length}, at={self.head_node}, "
            f"inject={self.flits_to_inject}, eject={self.flits_ejected})"
        )


__all__ = ["Message"]

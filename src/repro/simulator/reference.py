"""The reference stepper: poll everything, every cycle.

:class:`ScanEngine` is the seed engine's cycle loop, kept beside
:class:`~repro.simulator.engine.Engine` as the oracle its activity
tracking is held to.  Routing requests sit in a FIFO deque and every
blocked one is re-polled each cycle with candidates computed for that
request alone (the route table is never read or filled); transmission
polls every active channel through :meth:`PhysicalChannel.transmit
<repro.network.physical_channel.PhysicalChannel.transmit>` and iterates
the ideal-flow-control fixpoint over the whole set.  Nothing parks and
nothing is armed, so it is slower everywhere — and bit-identical in every
simulated quantity, which the golden traces, the fingerprint matrix and
the fuzz tests of ``tests/test_scheduler_active.py`` pin.

No config value selects it: construct it by name (``ScanEngine(config)``,
or ``run_point(config, engine=ScanEngine(config))`` for a whole point).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from repro.network.message import Message
from repro.network.physical_channel import PhysicalChannel
from repro.network.virtual_channel import VirtualChannel
from repro.simulator.engine import Engine


class ScanEngine(Engine):
    """:class:`Engine` with the full-scan routing and transmission phases."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._route_queue: Deque[Message] = deque()
        self._route_pending = self._route_queue

    def _enqueue_route(self, message: Message) -> None:
        self._route_queue.append(message)

    def _waiting_messages(self) -> List[Message]:
        return list(self._route_queue)

    def _route(self) -> bool:
        queue = self._route_queue
        policy = self.config.selection_policy
        rng = self._rng_routing
        obs = self._obs
        progressed = False
        for _ in range(len(queue)):
            message = queue.popleft()
            candidates = message.cached_candidates
            if candidates is None:
                candidates = self._compute_candidates(message)
                message.cached_candidates = candidates
            chosen = self._select(candidates, policy, rng)
            if chosen is None:
                message.blocked_at = self.cycle
                if obs is not None:
                    obs.on_message_blocked(self, message, candidates, 1)
                queue.append(message)  # retry next cycle, FIFO order kept
                continue
            self._allocate(message, chosen)
            if obs is not None:
                obs.on_vc_acquired(self, message, chosen)
            progressed = True
        return progressed

    def _transmit(self) -> bool:
        saf = self._saf
        ideal = self._ideal
        priority = self._highest_class_first
        cycle = self.cycle
        moved = polls = 0
        obs = self._obs
        on_flit = (
            obs.on_flit_arrival
            if obs is not None and obs.trace_flit_moves
            else None
        )
        pending = list(self._active_channels)
        while pending:
            retry: List[PhysicalChannel] = []
            progress = False
            polls += len(pending)
            for channel in pending:
                vc = channel.transmit(cycle, saf, ideal, priority)
                if vc is None:
                    # Re-poll only channels blocked on a condition that
                    # can still change this cycle (buffer space / SAF
                    # assembly); every other failure is final, so the
                    # fixpoint converges in far fewer passes.
                    if ideal and channel.retry_hint:
                        retry.append(channel)
                    continue
                progress = True
                moved += 1
                if on_flit is not None:
                    on_flit(self, vc)
                self._handle_flit_arrival(vc)
            if not ideal or not progress:
                break
            # Ideal flow control: slots freed this pass may unblock
            # channels that failed earlier in the same cycle (simultaneous
            # shift on the clock edge).  Iterate to the fixpoint; the
            # settled-flits rule still caps every flit at one hop/cycle.
            pending = retry
        self.flits_moved_total += moved
        self.polls_total += polls
        return moved > 0

    def _handle_flit_arrival(self, vc: VirtualChannel) -> None:
        owner = vc.owner
        if vc is owner.path[-1] and vc.dst_node != owner.dst:
            # The worm's front advanced into an intermediate router:
            # request the next channel once the router has seen the
            # head flit (wormhole/VCT) or the whole packet (SAF).
            trigger = owner.length if self._saf else 1
            if vc.flits_in == trigger:
                self._enqueue_route(owner)
        elif vc.dst_node == owner.dst and vc.flits_in == 1:
            self._delivering.append(vc)
        upstream = vc.upstream
        if upstream is None:
            if owner.flits_to_inject == 0:
                self.controller.injection_complete(
                    owner.src, owner.msg_class
                )
        elif upstream.occupancy == 0 and upstream.flits_out >= owner.length:
            # upstream.drained, inlined (this runs once per flit moved).
            self._release(upstream, owner)


__all__ = ["ScanEngine"]

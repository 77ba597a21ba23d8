"""Hop schemes: wormhole algorithms derived from SAF buffer-class schemes.

The paper's Section 2.1 derives wormhole algorithms from store-and-forward
(SAF) algorithms that avoid deadlock by *buffer reservation*: node buffers
are partitioned into classes b0..bm and every message's sequence of buffer
classes has monotonically increasing rank.  The derivation provides one
virtual channel c_i per buffer class b_i on every physical channel, and a
message that would occupy b_i in SAF reserves c_i in wormhole (Lemma 1).

:class:`HopClassScheme` captures exactly the SAF side of that construction
— how a message's buffer class evolves hop by hop — and doubles as the
wormhole algorithm through the shared class logic.  The same object drives
both the flit-level wormhole engine and the packet-level SAF/VCT engine, so
the paper's "derived from" relationship is literal in this codebase.

All hop schemes are fully adaptive: any minimal link may carry any hop; only
the virtual-channel *class* is constrained.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.routing.base import RouteChoice, RoutingAlgorithm
from repro.topology.base import Link, Topology


class _HopState:
    """Per-message class pointer.

    ``vc_class`` is the class the *next* hop must use; ``None`` until the
    first hop is committed for schemes that offer an initial choice (nbc).
    """

    __slots__ = ("vc_class",)

    def __init__(self, vc_class: Any) -> None:
        self.vc_class = vc_class

    def __copy__(self) -> "_HopState":
        # copy.copy() of a slotted object otherwise goes through
        # __reduce_ex__ and _reconstruct: ~45% of a cold
        # RouteTable.successor.
        return _HopState(self.vc_class)


class HopClassScheme(RoutingAlgorithm):
    """Base for positive-hop, negative-hop and bonus-card schemes."""

    fully_adaptive = True
    adaptive = True

    # -- the SAF buffer-class algorithm ------------------------------------

    @abstractmethod
    def initial_classes(self, src: int, dst: int) -> Sequence[int]:
        """Buffer classes a fresh message may start in (usually just (0,))."""

    @abstractmethod
    def class_after_hop(self, vc_class: int, from_node: int) -> int:
        """Buffer class after a hop departing *from_node* in *vc_class*."""

    @abstractmethod
    def rank(self, vc_class: int, node: int) -> int:
        """Lemma-1 rank of occupying class *vc_class* at *node*.

        Every implementation must make ranks strictly increase along any
        message path; :mod:`repro.analysis.invariants` machine-checks this.
        """

    # -- wormhole interface --------------------------------------------------

    def new_state(self, src: int, dst: int) -> _HopState:
        classes = self.initial_classes(src, dst)
        return _HopState(classes[0] if len(classes) == 1 else None)

    def candidates(
        self, state: _HopState, current: int, dst: int
    ) -> List[RouteChoice]:
        self._check_not_delivered(current, dst)
        links = self.minimal_links(current, dst)
        if state.vc_class is not None:
            vc_class = state.vc_class
            return [(link, vc_class) for link in links]
        # First hop of a scheme with an initial-class choice (the head is
        # still at its source, so current == src): the cross product of
        # minimal links and permitted starting classes.
        choices: List[RouteChoice] = []
        for vc_class in self.initial_classes(current, dst):
            for link in links:
                choices.append((link, vc_class))
        return choices

    def advance(
        self, state: _HopState, current: int, link: Link, vc_class: int
    ) -> _HopState:
        state.vc_class = self.class_after_hop(vc_class, current)
        return state

    def state_key(self, state: _HopState) -> Optional[Hashable]:
        """Candidates depend only on the class pointer."""
        return (state.vc_class,)

    # -- congestion control -----------------------------------------------------

    def message_class(self, src: int, dst: int, state: _HopState) -> Hashable:
        """Class = highest virtual-channel number usable for the first hop."""
        return max(self.initial_classes(src, dst))


__all__ = ["HopClassScheme"]

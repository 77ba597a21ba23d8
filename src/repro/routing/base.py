"""The routing-algorithm interface used by the simulator.

A routing algorithm answers one question per hop: *given a message at a
node, which (physical link, virtual-channel class) pairs may carry its next
hop?*  All algorithms in the paper are **minimal** — every candidate hop
moves the message strictly closer to its destination — which also rules out
livelock.

The interface is deliberately stateful-per-message: algorithms may attach a
small opaque state object to each message (hop counters, tags, datelines)
via :meth:`RoutingAlgorithm.new_state` and update it on every committed hop
via :meth:`RoutingAlgorithm.advance`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.topology.base import Link, Topology
from repro.util.errors import RoutingError
from repro.util.fingerprint import state_fingerprint

#: A candidate next hop: the physical link plus the virtual-channel class
#: the message must reserve on it.
RouteChoice = Tuple[Link, int]


class RoutingAlgorithm(ABC):
    """Base class for deadlock-free minimal routing algorithms.

    Subclasses set the class attributes :attr:`name`,
    :attr:`fully_adaptive` and :attr:`adaptive`, implement
    :meth:`candidates`, and may override the state hooks.
    """

    #: Short identifier used by the registry and in result tables.
    name: str = "abstract"
    #: True when every minimal path is permitted.
    fully_adaptive: bool = False
    #: True when at least some routing freedom exists.
    adaptive: bool = False

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        # candidates_cached's memo: (node, destination, state_key) -> the
        # RouteChoice tuple candidates() would return.  No engine reads
        # it — theirs is repro.routing.tables, in flat-index form.
        self._route_table: Dict[
            Tuple[int, int, Hashable], Tuple[RouteChoice, ...]
        ] = {}

    # -- resources ---------------------------------------------------------

    @property
    @abstractmethod
    def num_virtual_channels(self) -> int:
        """Virtual channels this algorithm needs per physical channel."""

    # -- per-message state ---------------------------------------------------

    def new_state(self, src: int, dst: int) -> Any:
        """Create per-message routing state (default: stateless)."""
        return None

    def advance(
        self, state: Any, current: int, link: Link, vc_class: int
    ) -> Any:
        """Update *state* after the message commits to a hop.

        *current* is the node the hop departs from.  Returns the new state
        (which may be the mutated input object).
        """
        return state

    # -- routing -------------------------------------------------------------

    @abstractmethod
    def candidates(
        self, state: Any, current: int, dst: int
    ) -> List[RouteChoice]:
        """All (link, vc_class) pairs allowed for the next hop.

        Raises :class:`RoutingError` if *current* == *dst* — a delivered
        message must not ask for another hop.
        """

    # -- candidate-set memoization ------------------------------------------

    def state_key(self, state: Any) -> Optional[Hashable]:
        """Hashable fingerprint of the candidate-relevant part of *state*.

        The contract: two states with equal keys must yield equal
        :meth:`candidates` results at every (current, dst) — the key is
        what the engines' route table (:mod:`repro.routing.tables`) and
        :meth:`candidates_cached` index on.  Returning ``None`` disables
        memoization for this state.

        The default covers stateless algorithms (state ``None``) and any
        state whose *entire* contents drive the candidate set, via
        :func:`repro.util.fingerprint.state_fingerprint`.  Algorithms
        whose candidate sets depend on a projection of their state
        override this with a smaller (and cheaper) key.
        """
        if state is None:
            return ()
        key = state_fingerprint(state)
        try:
            hash(key)
        except TypeError:
            return None
        return key

    def candidates_cached(
        self, state: Any, current: int, dst: int
    ) -> Sequence[RouteChoice]:
        """Memoized :meth:`candidates` (see :meth:`state_key`), as
        (link, class) pairs, for callers outside the simulator; the
        engines memoise in :mod:`repro.routing.tables` instead.

        Cache hits return a shared tuple; callers must not mutate it.
        States without a key fall through to a fresh ``candidates`` call.
        """
        key = self.state_key(state)
        if key is None:
            return self.candidates(state, current, dst)
        table = self._route_table
        entry = (current, dst, key)
        cached = table.get(entry)
        if cached is None:
            cached = tuple(self.candidates(state, current, dst))
            table[entry] = cached
        return cached

    # -- congestion control ----------------------------------------------------

    def message_class(self, src: int, dst: int, state: Any) -> Hashable:
        """Class key for the input-buffer-limit congestion control.

        The paper (Section 3, footnote 2) classifies messages by the
        virtual channel(s) they can use; the default covers algorithms
        whose messages all start in class 0.
        """
        return 0

    # -- helpers ---------------------------------------------------------------

    def _check_not_delivered(self, current: int, dst: int) -> None:
        if current == dst:
            raise RoutingError(
                f"message already at destination node {dst}; "
                "no further hop exists"
            )

    def minimal_links(self, current: int, dst: int) -> Tuple[Link, ...]:
        """All links out of *current* that lie on some minimal path to *dst*."""
        return self.topology.minimal_links(current, dst)

    def describe(self) -> str:
        """One-line human-readable summary."""
        kind = (
            "fully adaptive"
            if self.fully_adaptive
            else ("partially adaptive" if self.adaptive else "non-adaptive")
        )
        return (
            f"{self.name}: {kind}, "
            f"{self.num_virtual_channels} virtual channels/physical channel"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.topology!r})"


def dateline_vc_class(
    current_coord: int, dst_coord: int, direction: int
) -> int:
    """Dally–Seitz dateline virtual-channel class for one torus ring hop.

    Travelling in the + direction a message still ahead of its wrap-around
    crossing (current > dest) uses class 0 and switches to class 1 once the
    crossing is behind it; symmetrically for the - direction.  Messages
    whose ring path never wraps use class 1 throughout.  Both usages give
    every (channel, class) pair a strictly increasing rank along any path,
    so each ring's channel dependency graph is acyclic.
    """
    if direction == 1:
        return 0 if current_coord > dst_coord else 1
    return 0 if current_coord < dst_coord else 1


__all__ = ["RouteChoice", "RoutingAlgorithm", "dateline_vc_class"]

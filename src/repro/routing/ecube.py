"""The non-adaptive e-cube (dimension-order) routing algorithm.

A message corrects dimension 0 completely, then dimension 1, and so on.  On
a torus it travels the minimal way around each ring (ties at exactly half
the ring are broken toward the + direction so the algorithm stays
deterministic) and uses the two-class dateline scheme of Dally & Seitz to
break the wrap-around cycle, so two virtual channels per physical channel
suffice.  On a mesh a single virtual channel suffices.
"""

from __future__ import annotations

from typing import Any, Hashable, List

from repro.routing.base import (
    RouteChoice,
    RoutingAlgorithm,
    dateline_vc_class,
)
from repro.topology.base import Topology


class ECube(RoutingAlgorithm):
    """Deterministic dimension-order routing (the paper's baseline)."""

    name = "ecube"
    fully_adaptive = False
    adaptive = False

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        self._has_wrap = any(link.wraps for link in topology.links)

    @property
    def num_virtual_channels(self) -> int:
        return 2 if self._has_wrap else 1

    def candidates(
        self, state: Any, current: int, dst: int
    ) -> List[RouteChoice]:
        self._check_not_delivered(current, dst)
        topo = self.topology
        for dim in range(topo.n_dims):
            directions = topo.directions(current, dst, dim)
            if not directions:
                continue
            direction = directions[0]  # tie at k/2 resolves to +
            link = topo.out_link(current, dim, direction)
            if self._has_wrap:
                vc_class = dateline_vc_class(
                    topo.coords(current)[dim],
                    topo.coords(dst)[dim],
                    direction,
                )
            else:
                vc_class = 0
            return [(link, vc_class)]
        raise AssertionError("unreachable: current != dst but no hop found")

    def message_class(self, src: int, dst: int, state: Any) -> Hashable:
        """Class = the exact first (link, vc) the message will request.

        The paper classifies e-cube messages by "the particular virtual
        channel [the message] intends to use".
        """
        (link, vc_class), = self.candidates(state, src, dst)
        return (link.index, vc_class)


__all__ = ["ECube"]

"""Virtual-channel lane multiplication (paper §4 future work).

The paper's concluding section flags "evaluation of improvements in
throughputs with addition of virtual channels" as open work, citing
Dally's virtual-channel flow control result that extra channels improve
e-cube.  :class:`MultiLane` implements that study generically: it wraps
any routing algorithm and provides ``lanes`` physically separate virtual
channels per original channel *class*.  A message that could reserve
class ``c`` may reserve any lane ``c * lanes + i`` — more worms share
each physical channel, raising utilization at the cost of multiplexing.

Deadlock freedom is inherited: lanes of one class are interchangeable, so
any rank function or dependency-layer argument on classes carries over
with ``rank(lane) = rank(lane // lanes)`` (the analysis tools confirm the
wrapped graphs stay acyclic for the base algorithms that are acyclic).
"""

from __future__ import annotations

from typing import Any, Hashable, List, Optional

from repro.routing.base import RouteChoice, RoutingAlgorithm
from repro.topology.base import Link, Topology
from repro.util.validation import require


class MultiLane(RoutingAlgorithm):
    """Wrap *inner*, multiplying every virtual-channel class into lanes.

    The adaptivity flags are *inner*'s: the paper's adaptivity classes
    count node paths, and a choice among lanes of one class is no choice
    of path.
    """

    def __init__(self, inner: RoutingAlgorithm, lanes: int) -> None:
        require(lanes >= 1, f"lanes must be >= 1, got {lanes}")
        super().__init__(inner.topology)
        self.inner = inner
        self.lanes = lanes
        self.name = f"{inner.name}x{lanes}"
        self.fully_adaptive = inner.fully_adaptive
        self.adaptive = inner.adaptive

    @property
    def num_virtual_channels(self) -> int:
        return self.inner.num_virtual_channels * self.lanes

    def new_state(self, src: int, dst: int) -> Any:
        return self.inner.new_state(src, dst)

    def state_key(self, state: Any) -> Optional[Hashable]:
        """Lane expansion is stateless: the inner key is the whole key."""
        return self.inner.state_key(state)

    def candidates(
        self, state: Any, current: int, dst: int
    ) -> List[RouteChoice]:
        lanes = self.lanes
        expanded: List[RouteChoice] = []
        for link, vc_class in self.inner.candidates(state, current, dst):
            base = vc_class * lanes
            for lane in range(lanes):
                expanded.append((link, base + lane))
        return expanded

    def advance(
        self, state: Any, current: int, link: Link, vc_class: int
    ) -> Any:
        return self.inner.advance(
            state, current, link, vc_class // self.lanes
        )

    def message_class(self, src: int, dst: int, state: Any) -> Hashable:
        return self.inner.message_class(src, dst, state)


def with_lanes(inner: RoutingAlgorithm, lanes: int) -> RoutingAlgorithm:
    """*inner* unchanged for one lane, wrapped otherwise."""
    if lanes == 1:
        return inner
    return MultiLane(inner, lanes)


__all__ = ["MultiLane", "with_lanes"]

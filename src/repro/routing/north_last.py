"""The partially adaptive north-last algorithm of Glass & Ni.

Two-dimensional networks only.  With coordinates written ``(x1, x0)`` as in
the paper, "north" is travel in the negative direction of dimension 1.  The
turn model forbids turning *out of* a north hop, which for minimal routing
collapses to the rule the paper states: a message that must travel north
corrects dimension 0 completely first and then dimension 1 (pure e-cube
order, no adaptivity); every other message may route adaptively over its
minimal links, with northward half-ring ties resolved southward so the
message keeps its adaptivity.

Torus reconstruction (the paper gives no torus details; Glass & Ni define
the turn model on meshes and sketch the k-ary n-cube extension): virtual-
channel class = *number of wrap-around edges the message has crossed so
far*, giving ``n_dims + 1`` classes (3 on a 2-D torus).  This is
deadlock-free:

* a message's class is non-decreasing along its path, and the hop that
  crosses a wrap edge still uses the pre-crossing class, so each wrap edge
  is a terminal channel within its class — dependencies out of it go to
  the next class;
* the remaining class-c channels contain no wrap edges, so they form a
  mesh on which every message segment is monotone and the only turns are
  {+-x <-> south} (adaptive messages) and dimension-ordered turns (e-cube
  mode) — a subset of the north-last turn set, which Glass & Ni prove
  acyclic on meshes.

The within-mesh argument plus the strictly layered class transitions make
the full channel dependency graph acyclic; the analysis module
machine-checks this on small tori.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from repro.routing.base import RouteChoice, RoutingAlgorithm
from repro.topology.base import Link, Topology
from repro.topology.mesh import Mesh
from repro.util.errors import RoutingError

_DIM_X = 0  # "east/west" dimension, corrected first when going north
_DIM_Y = 1  # "north/south" dimension; north = -1 direction


class _NorthLastState:
    """Per-message mode and wrap-crossing count."""

    __slots__ = ("ecube_order", "wraps")

    def __init__(self, ecube_order: bool) -> None:
        self.ecube_order = ecube_order
        self.wraps = 0

    def __copy__(self) -> "_NorthLastState":
        # Skips copy.copy()'s generic __reduce_ex__ round trip (see
        # _HopState.__copy__).
        clone = _NorthLastState(self.ecube_order)
        clone.wraps = self.wraps
        return clone


class NorthLast(RoutingAlgorithm):
    """Glass & Ni's north-last turn-model algorithm for 2-D networks."""

    name = "nlast"
    fully_adaptive = False
    adaptive = True

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        if topology.n_dims != 2:
            raise RoutingError(
                "north-last is defined for two-dimensional networks; "
                f"got n_dims={topology.n_dims}"
            )
        self._is_mesh = isinstance(topology, Mesh)

    @property
    def num_virtual_channels(self) -> int:
        # One class per possible wrap crossing, plus the initial class.
        return 1 if self._is_mesh else self.topology.n_dims + 1

    def new_state(self, src: int, dst: int) -> _NorthLastState:
        directions = self.topology.directions(src, dst, _DIM_Y)
        # Only an unavoidable north leg (unique minimal direction -1)
        # forces e-cube order; a half-ring tie is resolved southward.
        return _NorthLastState(ecube_order=directions == (-1,))

    def advance(
        self,
        state: _NorthLastState,
        current: int,
        link: Link,
        vc_class: int,
    ) -> _NorthLastState:
        if link.wraps:
            state.wraps += 1
        return state

    def state_key(self, state: _NorthLastState) -> Optional[Hashable]:
        """Candidates depend only on the mode and wrap count."""
        return (state.ecube_order, state.wraps)

    def candidates(
        self, state: _NorthLastState, current: int, dst: int
    ) -> List[RouteChoice]:
        self._check_not_delivered(current, dst)
        vc_class = 0 if self._is_mesh else state.wraps
        if state.ecube_order:
            return [self._ecube_order_hop(current, dst, vc_class)]
        return self._adaptive_hops(current, dst, vc_class)

    def _ecube_order_hop(
        self, current: int, dst: int, vc_class: int
    ) -> RouteChoice:
        topo = self.topology
        for dim in (_DIM_X, _DIM_Y):
            directions = topo.directions(current, dst, dim)
            if not directions:
                continue
            direction = directions[0]  # tie at k/2 resolves to +
            return (topo.out_link(current, dim, direction), vc_class)
        raise AssertionError("unreachable: current != dst but no hop found")

    def _adaptive_hops(
        self, current: int, dst: int, vc_class: int
    ) -> List[RouteChoice]:
        topo = self.topology
        choices: List[RouteChoice] = []
        for direction in topo.directions(current, dst, _DIM_X):
            choices.append(
                (topo.out_link(current, _DIM_X, direction), vc_class)
            )
        if 1 in topo.directions(current, dst, _DIM_Y):
            # South only: an adaptive message never turns north.
            choices.append((topo.out_link(current, _DIM_Y, 1), vc_class))
        return choices

    def message_class(
        self, src: int, dst: int, state: _NorthLastState
    ) -> Hashable:
        """Class = canonical first (link, vc) — per the paper's footnote."""
        if state.ecube_order:
            link, vc_class = self._ecube_order_hop(src, dst, 0)
        else:
            link, vc_class = self._adaptive_hops(src, dst, 0)[0]
        return (link.index, vc_class)


__all__ = ["NorthLast"]

"""k-ary n-cube (torus) topology.

Every node has exactly ``2 * n_dims`` outgoing unidirectional links.  The
paper's main subject network is the 16-ary 2-cube ("16^2"), a 16x16 torus
with 256 nodes and 1024 unidirectional links.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.topology import ring
from repro.topology.base import Topology


class Torus(Topology):
    """A k-ary n-cube with wrap-around links in every dimension."""

    def _neighbor_coord(self, coord: int, direction: int) -> Optional[int]:
        return ring.step(coord, direction, self.radix)

    def _hop_wraps(self, coord: int, direction: int) -> bool:
        return ring.crosses_wrap(coord, direction, self.radix)

    def dim_distance(self, src: int, dst: int, dim: int) -> int:
        return ring.ring_distance(
            self.coords(src)[dim], self.coords(dst)[dim], self.radix
        )

    def minimal_directions(
        self, src: int, dst: int, dim: int
    ) -> Tuple[int, ...]:
        return ring.ring_directions(
            self.coords(src)[dim], self.coords(dst)[dim], self.radix
        )

    @property
    def diameter(self) -> int:
        return self.n_dims * (self.radix // 2)

    def max_negative_hops(self) -> int:
        """Maximum negative hops any message can take (even radix only).

        With the parity 2-coloring, at most every other hop of a minimal
        path is negative, so the bound is ``ceil(diameter / 2)`` — the
        paper's ``ceil(n * floor(k/2) / 2)`` (8 for a 16x16 torus).
        """
        return (self.diameter + 1) // 2


__all__ = ["Torus"]

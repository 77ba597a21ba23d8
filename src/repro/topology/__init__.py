"""Network topologies: k-ary n-cubes (tori) and n-dimensional meshes.

The paper evaluates 16-ary 2-cubes (16x16 tori, written "16^2"), but its
simulator supports k-ary n-cubes and meshes generally; so does this package.
"""

from typing import List, Tuple

from repro.topology.base import Link, Topology
from repro.topology.coords import coords_to_node, node_to_coords
from repro.topology.mesh import Mesh
from repro.topology.ring import (
    ring_directions,
    ring_distance,
    ring_offset,
)
from repro.topology.torus import Torus
from repro.util.errors import ConfigurationError

#: Topology kinds a spec string may name.
TOPOLOGY_KINDS = ("torus", "mesh")


def split_topology(spec: str) -> Tuple[str, List[int]]:
    """Kind and integers of a ``kind:AxB[x...]`` spec, in any case.

    What the integers mean is the caller's grammar: radix and dimension
    count to a campaign, one radix per dimension to ``repro-check verify``.
    """
    kind, _, shape = spec.lower().partition(":")
    kind = kind.strip()
    if kind not in TOPOLOGY_KINDS:
        raise ConfigurationError(
            f"topology spec {spec!r}: kind must be one of "
            f"{TOPOLOGY_KINDS}, got {kind!r}"
        )
    try:
        return kind, [int(part) for part in shape.split("x")]
    except ValueError:
        raise ConfigurationError(
            f"topology spec {spec!r}: expected integers separated by "
            f"'x' after '{kind}:', e.g. 'torus:16x2'"
        ) from None


__all__ = [
    "Link",
    "Mesh",
    "TOPOLOGY_KINDS",
    "Topology",
    "Torus",
    "coords_to_node",
    "node_to_coords",
    "ring_directions",
    "ring_distance",
    "ring_offset",
    "split_topology",
]

"""Topology abstraction shared by torus and mesh networks.

A topology is a directed graph of unidirectional *links* between nodes (the
paper assumes two unidirectional links between each pair of adjacent nodes).
Each link knows which dimension it runs along, its direction, and whether it
is a wrap-around ("dateline") edge — the latter drives virtual-channel class
selection for the e-cube and north-last algorithms on tori.

Links carry a dense integer index so the simulator can store per-link state
in flat lists.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.topology.coords import Coords, coords_to_node, node_to_coords, parity
from repro.util.errors import TopologyError
from repro.util.validation import require


T = TypeVar("T")

#: One row of k entries per dimension: ``rows[dim][coord]``.
DimRows = Tuple[Tuple[T, ...], ...]
#: One k x k table per dimension: ``tables[dim][src_coord][dst_coord]``.
DimTables = Tuple[DimRows[T], ...]


class Link:
    """One unidirectional physical channel of the network."""

    __slots__ = ("index", "src", "dst", "dim", "direction", "wraps")

    def __init__(
        self,
        index: int,
        src: int,
        dst: int,
        dim: int,
        direction: int,
        wraps: bool,
    ) -> None:
        self.index = index
        self.src = src
        self.dst = dst
        self.dim = dim
        self.direction = direction
        self.wraps = wraps

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        wrap = ", wrap" if self.wraps else ""
        return (
            f"Link#{self.index}({self.src}->{self.dst}, "
            f"dim={self.dim}, dir={self.direction:+d}{wrap})"
        )


class Topology(ABC):
    """Base class for k-ary n-dimensional networks with uniform radix.

    The one owner of geometry.  A subclass *defines* it, one dimension
    at a time (:meth:`dim_distance`, :meth:`minimal_directions`); this
    class turns the definitions into per-dimension ``radix x radix``
    tables on first use and answers every query from them:
    :meth:`distance`, :meth:`directions`, :meth:`minimal_links`,
    :meth:`distance_row`, :meth:`distance_table`.  Consumers call
    those, never the per-dimension definitions.
    """

    def __init__(self, radix: int, n_dims: int) -> None:
        require(radix >= 2, f"radix must be >= 2, got {radix}")
        require(n_dims >= 1, f"n_dims must be >= 1, got {n_dims}")
        self.radix = radix
        self.n_dims = n_dims
        self.num_nodes = radix**n_dims
        self._dims = range(n_dims)
        self._links: List[Link] = []
        # (node, dim, direction) -> Link
        self._out: Dict[Tuple[int, int, int], Link] = {}
        self._coords_cache: List[Coords] = [
            node_to_coords(node, radix, n_dims)
            for node in range(self.num_nodes)
        ]
        # Parity is consulted per hop by the negative-hop schemes, so it
        # is a table lookup rather than a per-call coordinate sum.
        self._parity_cache: List[int] = [
            parity(coords) for coords in self._coords_cache
        ]
        # node -> [dim][dst_coord] -> minimal out-links along dim, filled
        # on a node's first minimal_links query (n_dims * radix small
        # tuples per visited node, never a per-pair store).
        self._links_toward: List[Optional[DimRows[Tuple[Link, ...]]]] = [
            None
        ] * self.num_nodes
        self._distance_table: Optional[np.ndarray] = None
        self._build_links()

    # -- construction -----------------------------------------------------

    @abstractmethod
    def _neighbor_coord(
        self, coord: int, direction: int
    ) -> Optional[int]:
        """Next coordinate along a dimension, or None at a mesh boundary."""

    @abstractmethod
    def _hop_wraps(self, coord: int, direction: int) -> bool:
        """Whether one hop from *coord* in *direction* uses a wrap edge."""

    def _build_links(self) -> None:
        for node in range(self.num_nodes):
            coords = self._coords_cache[node]
            for dim in range(self.n_dims):
                for direction in (1, -1):
                    nxt = self._neighbor_coord(coords[dim], direction)
                    if nxt is None:
                        continue
                    dst_coords = list(coords)
                    dst_coords[dim] = nxt
                    dst = coords_to_node(tuple(dst_coords), self.radix)
                    link = Link(
                        index=len(self._links),
                        src=node,
                        dst=dst,
                        dim=dim,
                        direction=direction,
                        wraps=self._hop_wraps(coords[dim], direction),
                    )
                    self._links.append(link)
                    self._out[(node, dim, direction)] = link

    # -- geometry ---------------------------------------------------------

    def coords(self, node: int) -> Coords:
        """Per-dimension coordinates of *node*."""
        if not 0 <= node < self.num_nodes:
            raise TopologyError(f"node id {node} out of range")
        return self._coords_cache[node]

    def node(self, coords: Coords) -> int:
        """Integer node id for *coords*."""
        require(
            len(coords) == self.n_dims,
            f"expected {self.n_dims} coordinates, got {len(coords)}",
        )
        return coords_to_node(coords, self.radix)

    def parity(self, node: int) -> int:
        """0 for even nodes, 1 for odd nodes (coordinate-sum parity)."""
        return self._parity_cache[node]

    @abstractmethod
    def dim_distance(self, src: int, dst: int, dim: int) -> int:
        """Minimal hops between *src* and *dst* along one dimension.

        The definition :attr:`dim_distance_tables` is filled from; it
        may depend only on the two nodes' coordinates in *dim*.
        """

    @abstractmethod
    def minimal_directions(
        self, src: int, dst: int, dim: int
    ) -> Tuple[int, ...]:
        """Directions in *dim* along which one hop moves *src* nearer *dst*.

        The definition :attr:`dim_direction_tables` is filled from; it
        may depend only on the two nodes' coordinates in *dim*.
        """

    def _dim_table(self, define: Callable[[int, int, int], T]) -> DimTables[T]:
        """``[dim][src_coord][dst_coord] -> define(src, dst, dim)``."""
        coords = range(self.radix)
        tables = []
        for dim in self._dims:
            # a * stride is the node at coordinate a in *dim*, 0 elsewhere.
            stride = self.radix**dim
            tables.append(
                tuple(
                    tuple(define(a * stride, b * stride, dim) for b in coords)
                    for a in coords
                )
            )
        return tuple(tables)

    @cached_property
    def dim_distance_tables(self) -> DimTables[int]:
        """Per-dimension hop counts, ``[dim][src_coord][dst_coord]``.

        Filled on first use with ``n_dims * radix**2`` calls of the
        subclass's :meth:`dim_distance`; every distance query after
        that is a lookup.
        """
        return self._dim_table(self.dim_distance)

    @cached_property
    def dim_direction_tables(self) -> DimTables[Tuple[int, ...]]:
        """Per-dimension minimal directions, ``[dim][src_coord][dst_coord]``.

        Filled on first use from the subclass's
        :meth:`minimal_directions`, whose tuples (and their order: a
        half-ring tie lists + first) are stored as returned.
        """
        return self._dim_table(self.minimal_directions)

    def distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes (a builtin ``int``)."""
        coords = self._coords_cache
        src_coords = coords[src]
        dst_coords = coords[dst]
        tables = self.dim_distance_tables
        total = 0
        for dim in self._dims:
            total += tables[dim][src_coords[dim]][dst_coords[dim]]
        return total

    def directions(self, src: int, dst: int, dim: int) -> Tuple[int, ...]:
        """:meth:`minimal_directions`, read from the table."""
        coords = self._coords_cache
        return self.dim_direction_tables[dim][coords[src][dim]][
            coords[dst][dim]
        ]

    def minimal_links(self, node: int, dst: int) -> Tuple[Link, ...]:
        """Links out of *node* that lie on some minimal path to *dst*.

        Ordered by dimension, then as :meth:`minimal_directions` orders
        the directions.
        """
        toward = self._links_toward[node]
        if toward is None:
            toward = self._build_links_toward(node)
        dst_coords = self._coords_cache[dst]
        links: Tuple[Link, ...] = ()
        for dim in self._dims:
            links += toward[dim][dst_coords[dim]]
        return links

    def _build_links_toward(self, node: int) -> DimRows[Tuple[Link, ...]]:
        out = self._out
        node_coords = self._coords_cache[node]

        def links(dim: int, directions: Tuple[int, ...]) -> Tuple[Link, ...]:
            found = [out.get((node, dim, direction)) for direction in directions]
            return tuple(link for link in found if link is not None)

        toward = tuple(
            tuple(links(dim, directions) for directions in table[node_coords[dim]])
            for dim, table in enumerate(self.dim_direction_tables)
        )
        self._links_toward[node] = toward
        return toward

    def distance_row(self, src: int) -> List[int]:
        """Hop counts from *src* to every node, indexed by node id.

        Assembled from the per-dimension tables in O(num_nodes), for
        callers that walk one source's destinations and must not force
        the N x N :meth:`distance_table`.
        """
        src_coords = self._coords_cache[src]
        row = list(self.dim_distance_tables[0][src_coords[0]])
        for table, a in zip(self.dim_distance_tables[1:], src_coords[1:]):
            # Dimension 0 is the least-significant digit of a node id.
            row = [high + low for high in table[a] for low in row]
        return row

    def distance_table(self) -> np.ndarray:
        """All-pairs hop counts, read-only ``[N, N]`` int64.

        Broadcast from the per-dimension tables on first use and kept.
        N**2 memory: meant for consumers that already hold an N x N
        array (the batch engine's injection caches); scalar callers use
        :meth:`distance` or :meth:`distance_row`.
        """
        if self._distance_table is None:
            k = self.radix
            table = np.zeros((1, 1), dtype=np.int64)
            # As distance_row: each dimension becomes the next, more
            # significant, digit of both node ids.
            for per_dim in self.dim_distance_tables:
                high = np.array(per_dim, dtype=np.int64)
                size = k * table.shape[0]
                table = (
                    high[:, None, :, None] + table[None, :, None, :]
                ).reshape(size, size)
            table.setflags(write=False)
            self._distance_table = table
        return self._distance_table

    @property
    @abstractmethod
    def diameter(self) -> int:
        """Maximum minimal-path length between any node pair."""

    def average_distance(self) -> float:
        """Mean minimal distance over ordered pairs of distinct nodes.

        For uniform traffic this is the paper's average diameter (8.03 for
        a 16x16 torus).
        """
        # A pair of coordinates in one dimension is shared by
        # (num_nodes / radix)**2 node pairs; distance(s, s) is 0.
        per_dim = sum(
            sum(map(sum, table)) for table in self.dim_distance_tables
        )
        total = per_dim * (self.num_nodes // self.radix) ** 2
        return total / (self.num_nodes * (self.num_nodes - 1))

    # -- links ------------------------------------------------------------

    @property
    def links(self) -> Sequence[Link]:
        """All unidirectional links, indexed by ``Link.index``."""
        return self._links

    @property
    def num_links(self) -> int:
        return len(self._links)

    def out_link(self, node: int, dim: int, direction: int) -> Optional[Link]:
        """The link leaving *node* along *dim* in *direction*, if any."""
        return self._out.get((node, dim, direction))

    def out_links(self, node: int) -> Iterable[Link]:
        """All links leaving *node*."""
        for dim in range(self.n_dims):
            for direction in (1, -1):
                link = self._out.get((node, dim, direction))
                if link is not None:
                    yield link

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(radix={self.radix}, "
            f"n_dims={self.n_dims}, nodes={self.num_nodes}, "
            f"links={self.num_links})"
        )


__all__ = ["Link", "Topology"]

"""Route tables: the one place an engine memoises candidate sets.

Every shipped algorithm's candidate set is a pure function of ``(node,
dst, state_key)`` (:meth:`RoutingAlgorithm.state_key`).  A
:class:`RouteTable` holds that function's visited part in the one form
both engines can read:

``entries[(node, dst, state_key)]`` — the candidates as a tuple of *flat
VC indices*, ``link.index * V + vc_class``, in ``candidates()`` order.

Plain ints mean an entry is valid for any engine on an equal network (the
object engine resolves them through ``Fabric.vcs``, the batch stepper
uses them as array indices), and that the cyclic collector stops
tracking it: the value on the first pass that sees it, the key (which
holds the state key, one more tuple) on the second.  A process that has
routed a million requests gives a collection no more to walk than one
that has routed none.

**Who shares a table.**  :func:`route_table` is the only way an engine
gets one.  Engines that built their algorithm from a registry name on a
stock :class:`Torus` / :class:`Mesh` share one table per (topology kind,
radix, n_dims, name), so the points of a load ladder — the paper's
artifacts are ladders — route from one memo instead of re-deriving it
per point.  The table computes its entries with its *own* topology and
algorithm instance, never an engine's, and keeps no message's live state
(hop schemes mutate theirs in place): what it holds depends on which
requests were made before only in *which* entries exist, never in their
values, so sharing is invisible to every result.  The two most recently
used tables are kept (algorithm-major sweeps need one; memory stays
flat); an evicted table lives on for as long as an engine still holds
it.  An engine handed an explicit ``algorithm=`` instance gets a private
table: nothing is ever aliased by class name.

**Dense rows, for the batch stepper only.**  :meth:`RouteTable.row_for`
numbers entries and lays them out as numpy rows so whole request batches
gather at once:

* ``cand_flat[row, k]`` — flat VC index of candidate *k*, ``-1`` padded
  to the widest row interned so far (no wider: the batch stepper's
  per-request arrays all take this width);
* ``cand_ch[row, k]`` — physical-channel index (for load gathers);
* ``cand_dst[row, k]`` — the node the hop lands on;
* ``count[row]`` — number of candidates;
* ``term[row, k]`` — True when candidate *k* lands on the destination
  (the hop after which the message stops requesting routes);
* ``succ[row, k]`` — the row a message occupies after committing
  candidate *k*, interned lazily on first commit (``-1`` until then;
  never queried for hops that arrive at the destination).

The columns have zero rows until the first ``row_for`` call, so a process
that only runs the object engine never pays for them (a 16x16 point
visits ~10^5 entries; as rows that would be tens of MB).

Successor rows are computed from a stored *representative state* per
row: ``advance`` is applied to a shallow copy of the representative and
the result is interned under its own key.  This is sound under a
contract slightly stronger than :meth:`RoutingAlgorithm.state_key`'s:
the advanced state's key must be determined by ``(state_key, current,
link, vc_class)`` alone.  Every shipped algorithm satisfies it — e-cube
is stateless, the hop schemes map ``(vc_class,)`` through
``class_after_hop(vc_class, current)``, north-last increments its wrap
count on wrap links, 2pn's tag never changes, and multi-lane delegates —
and any custom algorithm whose ``advance`` consults state outside its
key must not be run on the batch backend.  Row numbers depend on
interning order (a shared table may arrive pre-grown); nothing a lane
reports may depend on them.

States whose ``state_key`` is ``None`` (memoization opt-out) cannot be
interned: the object engine computes their candidates per request, and
:meth:`RouteTable.row_for` raises ``ConfigurationError``.
"""

from __future__ import annotations

import copy
from functools import lru_cache
from typing import Any, Dict, Hashable, List, Optional, Tuple, Type

import numpy as np

from repro.routing.base import RoutingAlgorithm
from repro.routing.registry import make_algorithm
from repro.topology.base import Topology
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus
from repro.util.errors import ConfigurationError

#: Row capacity of the first dense allocation; doubled on demand.
_INITIAL_ROWS = 256

#: An entry's key: (node, destination, algorithm state key).
EntryKey = Tuple[int, int, Hashable]


def flat_candidates(
    algorithm: RoutingAlgorithm,
    num_vcs: int,
    state: Any,
    node: int,
    dst: int,
) -> List[int]:
    """``algorithm.candidates(state, node, dst)`` as flat VC indices.

    The one definition of the int format: table entries and the object
    engine's per-request reference path both come from here.
    """
    return [
        link.index * num_vcs + vc_class
        for link, vc_class in algorithm.candidates(state, node, dst)
    ]


class RouteTable:
    """Interned candidate sets of one (topology, algorithm)."""

    def __init__(self, algorithm: RoutingAlgorithm) -> None:
        self.algorithm = algorithm
        self._v = algorithm.num_virtual_channels
        #: (node, dst, state_key) -> flat VC indices, ``candidates()``
        #: order.  Engines probe this dict directly and call
        #: :meth:`intern` on a miss.
        self.entries: Dict[EntryKey, Tuple[int, ...]] = {}
        # One int object per flat index, for all entries to share:
        # CPython keeps no ints above 256, so entries holding their own
        # copies are a quarter larger (1.5 MB of peak RSS on the 8x8
        # Figure-3 ladder, where two tables are alive).
        self._flat_ids: Dict[int, int] = {}
        # -- dense rows (batch stepper only; see the module docstring) --
        self._index: Dict[EntryKey, int] = {}
        self.size = 0
        # As wide as the widest row interned so far, exactly: every
        # [n, width] array the batch stepper gathers through these is
        # padding beyond that (e-cube has 1 candidate, nbc up to 9).
        shape = (0, 1)
        self.cand_flat = np.full(shape, -1, dtype=np.int64)
        self.cand_ch = np.zeros(shape, dtype=np.int64)
        self.cand_dst = np.zeros(shape, dtype=np.int64)
        self.term = np.zeros(shape, dtype=bool)
        self.count = np.zeros(0, dtype=np.int64)
        self.succ = np.full(shape, -1, dtype=np.int64)
        #: Per-row scalars for successor interning: where the row sits
        #: and a state that stands for every state with the row's key.
        self.rep_state: List[Any] = []
        self.node: List[int] = []
        self.dst: List[int] = []

    def intern(self, entry: EntryKey, state: Any) -> Tuple[int, ...]:
        """Compute and store the entry of one missed ``entries`` probe.

        *state* is only read, for this one ``candidates`` call; *entry*
        must be ``(node, dst, state_key(state))``.
        """
        fresh = flat_candidates(
            self.algorithm, self._v, state, entry[0], entry[1]
        )
        flats = tuple(map(self._flat_ids.setdefault, fresh, fresh))
        self.entries[entry] = flats
        return flats

    def _resize(self, rows: int, width: int) -> None:
        """Reallocate the columns to ``rows x width``, contents kept."""

        def grown(old: np.ndarray, fill: int) -> np.ndarray:
            fresh = np.full((rows, width), fill, dtype=old.dtype)
            fresh[: old.shape[0], : old.shape[1]] = old
            return fresh

        self.cand_flat = grown(self.cand_flat, -1)
        self.cand_ch = grown(self.cand_ch, 0)
        self.cand_dst = grown(self.cand_dst, 0)
        self.term = grown(self.term, False)
        self.succ = grown(self.succ, -1)
        count = np.zeros(rows, dtype=np.int64)
        count[: self.count.shape[0]] = self.count
        self.count = count

    def row_for(
        self,
        node: int,
        dst: int,
        state: Any,
        key: Optional[Hashable] = None,
    ) -> int:
        """Intern (and return) the row of one (node, dst, state) position.

        *state* becomes the row's representative on first interning, so
        it must be the caller's to give away: never a state something
        else goes on to mutate (the table advances shallow copies, never
        the representative itself).
        """
        if key is None:
            key = self.algorithm.state_key(state)
            if key is None:
                raise ConfigurationError(
                    f"routing algorithm {self.algorithm.name!r} returned "
                    "state_key=None: its candidate sets cannot be "
                    "table-interned, which the batch backend requires "
                    "(run backend='object' instead)"
                )
        entry = (node, dst, key)
        row = self._index.get(entry)
        if row is not None:
            return row
        flats = self.entries.get(entry)
        if flats is None:
            flats = self.intern(entry, state)
        row = self.size
        capacity, width = self.cand_flat.shape
        if row == capacity:
            capacity = max(_INITIAL_ROWS, 2 * capacity)
        width = max(width, len(flats))
        if (capacity, width) != self.cand_flat.shape:
            self._resize(capacity, width)
        v = self._v
        links = self.algorithm.topology.links
        for k, flat in enumerate(flats):
            channel = flat // v
            landing = links[channel].dst
            self.cand_flat[row, k] = flat
            self.cand_ch[row, k] = channel
            self.cand_dst[row, k] = landing
            self.term[row, k] = landing == dst
        self.count[row] = len(flats)
        self.rep_state.append(state)
        self.node.append(node)
        self.dst.append(dst)
        self._index[entry] = row
        self.size = row + 1
        return row

    def successor(self, row: int, k: int) -> int:
        """The row occupied after committing candidate *k* of *row*.

        Lazily interned: ``advance`` runs once per (row, candidate) on a
        shallow copy of the representative state.  Must not be called
        for a hop that arrives at the destination (delivered messages
        request no further candidates).
        """
        cached = int(self.succ[row, k])
        if cached >= 0:
            return cached
        algorithm = self.algorithm
        link_index, vc_class = divmod(int(self.cand_flat[row, k]), self._v)
        link = algorithm.topology.links[link_index]
        advanced = algorithm.advance(
            copy.copy(self.rep_state[row]), self.node[row], link, vc_class
        )
        succ = self.row_for(link.dst, self.dst[row], advanced)
        self.succ[row, k] = succ
        return succ


@lru_cache(maxsize=2)
def shared_table(
    kind: Type[Topology], radix: int, n_dims: int, name: str
) -> RouteTable:
    """The process's table for one registry algorithm on one stock
    network, built over a topology and algorithm of its own.

    Engines go through :func:`route_table`; this is public for its
    ``cache_info()`` / ``cache_clear()`` (tests, and benchmarks that
    must time a cold process).
    """
    return RouteTable(make_algorithm(name, kind(radix, n_dims)))


def route_table(
    algorithm: RoutingAlgorithm, registry_name: Optional[str]
) -> RouteTable:
    """The table an engine routing with *algorithm* reads and fills.

    *registry_name* is the name the engine itself built *algorithm* from
    (``make_algorithm(registry_name, algorithm.topology)``), or None for
    an instance handed to it from outside.  Shared (see the module
    docstring) when the name is given and the topology is a stock one an
    equal copy of which can be built from its shape; private otherwise.
    """
    topology = algorithm.topology
    if registry_name is None or type(topology) not in (Torus, Mesh):
        return RouteTable(algorithm)
    return shared_table(
        type(topology), topology.radix, topology.n_dims, registry_name
    )


__all__ = [
    "EntryKey",
    "RouteTable",
    "flat_candidates",
    "route_table",
    "shared_table",
]
